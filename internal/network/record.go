package network

import (
	"encoding/json"
	"slices"

	"repro/internal/trace"
)

// DefaultAnchorEvery is the default snapshot-anchor cadence (in steps) for
// recorded runs: frequent enough that reconstructing any step replays at
// most this many world deltas, sparse enough that anchors stay a small
// fraction of the log.
const DefaultAnchorEvery = 100

// StepRecorder streams a world's evolution into a trace.WorldSink: a full
// snapshot anchor every K harness steps and one compact delta (changed
// positions, changed radio ranges, fault-state transitions) after every
// world step. The recorder only observes — it never mutates the world or
// consumes RNG — so recording cannot perturb a seeded run.
//
// Protocol, mirroring the harness loop:
//
//	rec := NewStepRecorder(world, sink, every) // world at its start state
//	for step := 0; step < steps; step++ {
//	    rec.BeforeStep(step) // anchors V(step) when step%every == 0
//	    ... agent phase: events emitted at this step ...
//	    world.Step()
//	    rec.AfterWorldStep() // delta labeled step+1 = V(step+1)
//	}
//
// With anchors at V(A) and deltas labeled A+1..S, replaying the tail of
// deltas in (A, S] on top of the nearest anchor A <= S reconstructs the
// world exactly as the harness observed it at step S.
type StepRecorder struct {
	df    worldDiffer
	sink  trace.WorldSink
	every int
}

// NewStepRecorder starts recording w into sink, anchoring every `every`
// steps (<= 0 uses DefaultAnchorEvery). Returns nil — a no-op recorder —
// when sink is nil. The world's current state becomes the delta baseline,
// so construct the recorder before the first BeforeStep call.
func NewStepRecorder(w *World, sink trace.WorldSink, every int) *StepRecorder {
	if sink == nil {
		return nil
	}
	if every <= 0 {
		every = DefaultAnchorEvery
	}
	return &StepRecorder{df: newWorldDiffer(w), sink: sink, every: every}
}

// BeforeStep anchors a full snapshot of the current world state when step
// falls on the anchor cadence. Call at the top of each harness step,
// before the agent phase.
func (r *StepRecorder) BeforeStep(step int) {
	if r == nil || step%r.every != 0 {
		return
	}
	b, err := json.Marshal(r.df.w.Snapshot())
	if err != nil {
		// Snapshot marshalling cannot fail for in-range world state; skip
		// the anchor rather than aborting the run if it somehow does.
		return
	}
	r.sink.EmitAnchor(step, b)
}

// AfterWorldStep emits the delta between the previous baseline and the
// world's new state, labeled with the world's own step counter. Call
// immediately after each World.Step.
func (r *StepRecorder) AfterWorldStep() {
	if r != nil && r.df.diff() {
		r.sink.EmitWorld(r.df.d)
	}
}

// worldDiffer turns a world's evolution into trace.WorldDeltas, the one
// form in which both the StepRecorder (binary logs) and the
// TrajectoryRecorder (replay tapes) record world change.
type worldDiffer struct {
	w            *World
	prevX, prevY []float64
	prevRange    []float64
	prevEpoch    int

	d trace.WorldDelta // the latest diff; its slices are reused
}

// newWorldDiffer takes w's current state as the baseline.
func newWorldDiffer(w *World) worldDiffer {
	var df worldDiffer
	df.reset(w)
	return df
}

// reset takes w's current state as the baseline, reusing df's buffers.
func (df *worldDiffer) reset(w *World) {
	n := w.N()
	df.w = w
	df.prevEpoch = w.FaultEpoch()
	df.prevX = slices.Grow(df.prevX[:0], n)[:n]
	df.prevY = slices.Grow(df.prevY[:0], n)[:n]
	df.prevRange = slices.Grow(df.prevRange[:0], n)[:n]
	for u := 0; u < n; u++ {
		p := w.pos[u]
		df.prevX[u], df.prevY[u] = p.X, p.Y
		df.prevRange[u] = w.radios[u].Range()
	}
}

// diff fills d with the change since the baseline — moved positions,
// changed radio ranges and, when the fault epoch advanced, the complete
// new fault state — labels it with the world's step count, advances the
// baseline, and reports whether anything changed. A static world changes
// only at fault epochs, so between them diff skips the O(n) scan.
func (df *worldDiffer) diff() bool {
	w := df.w
	d := &df.d
	*d = trace.WorldDelta{
		Step:         w.StepCount(),
		Nodes:        d.Nodes[:0],
		X:            d.X[:0],
		Y:            d.Y[:0],
		RangeNodes:   d.RangeNodes[:0],
		Ranges:       d.Ranges[:0],
		Dead:         d.Dead[:0],
		DownGateways: d.DownGateways[:0],
	}
	ep := w.FaultEpoch()
	if !w.dynamic && ep == df.prevEpoch {
		return false
	}
	for u := 0; u < w.N(); u++ {
		p := w.pos[u]
		if p.X != df.prevX[u] || p.Y != df.prevY[u] {
			d.Nodes = append(d.Nodes, int32(u))
			d.X = append(d.X, p.X)
			d.Y = append(d.Y, p.Y)
			df.prevX[u], df.prevY[u] = p.X, p.Y
		}
		if rg := w.radios[u].Range(); rg != df.prevRange[u] {
			d.RangeNodes = append(d.RangeNodes, int32(u))
			d.Ranges = append(d.Ranges, rg)
			df.prevRange[u] = rg
		}
	}
	if ep != df.prevEpoch {
		df.prevEpoch = ep
		d.FaultChanged = true
		d.Dead, d.DownGateways = w.appendFaultMasks(d.Dead, d.DownGateways)
		d.PartitionX, d.Partition = w.Partition()
	}
	return len(d.Nodes) > 0 || len(d.RangeNodes) > 0 || d.FaultChanged
}
