package network

// Trajectory replay: the third world-stepping engine, alongside the full
// rebuild and the incremental engine.
//
// The paper's agents only *observe* the world — mobility and link churn
// evolve independently of agent decisions — so every replication and every
// sweep point over one (world spec, seed, fault schedule) steps an
// identical world. A TrajectoryRecorder captures one live run's evolution
// — position deltas, edge add/remove churn, range updates, fault-epoch
// transitions — into an in-memory Trajectory, delta-coded with the same
// predictor/XOR float lanes and varint framing as the trace binlog.
// Subsequent runs replay it through World.StepFromTrajectory, which applies
// the cached churn in O(changes) with zero mobility RNG, zero disc scans,
// and zero grid maintenance, and is bit-identical to live stepping (pinned
// by the equivalence, fuzz, and -race gates in trajectory_test.go).
//
// Wire format for Trajectory.data — a sequence of records, each:
//
//	uvarint gap      empty steps preceding this record
//	byte    flags    trajMoved | trajRanges | trajAdds | trajRemoves | trajFault
//	payloads         in flag order, see encode/decode below
//
// Trailing empty steps carry no bytes at all (the step count bounds them).
// Float values ride the predictor chain (xor against a linear extrapolation
// of the node's last two values), and the chains reset at every anchor-era
// boundary — both sides derive the era from the record's step number alone,
// so a Trajectory decodes identically whether or not an anchor was stored.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/trace"
)

const (
	trajMoved   = 1 << iota // changed positions
	trajRanges              // changed radio ranges
	trajAdds                // edges that appeared
	trajRemoves             // edges that vanished
	trajFault               // fault-epoch transition (full masks)

	trajAllFlags = trajMoved | trajRanges | trajAdds | trajRemoves | trajFault
)

// trajMagic and trajVersion frame the serialised form (MarshalBinary).
const (
	trajMagic   = "AMSHTRAJ"
	trajVersion = 1
)

// ErrTrajectoryCorrupt wraps every decode/validation failure so callers can
// distinguish corruption from I/O errors.
var ErrTrajectoryCorrupt = errors.New("corrupt trajectory")

func trajCorrupt(format string, args ...any) error {
	return fmt.Errorf("network: %w: "+format, append([]any{ErrTrajectoryCorrupt}, args...)...)
}

// TrajAnchor pairs a step number with the JSON world snapshot captured
// after that step. Anchors are stored only at era boundaries the world
// actually changed before, so an all-static stretch costs nothing.
type TrajAnchor struct {
	Step int
	Snap []byte
}

// Trajectory is a recorded world evolution: the start snapshot, the
// delta-coded churn stream, and periodic snapshot anchors. It is immutable
// after Finish/Unmarshal and safe to share across concurrent replay worlds
// — each World() call gets its own decode cursor.
type Trajectory struct {
	n       int
	steps   int
	every   int
	dynamic bool
	start   []byte   // JSON snapshot at record start
	snap    Snapshot // decoded start, cached
	anchors []TrajAnchor
	data    []byte
	records int
	hash    uint64
}

// Steps returns how many world steps the trajectory covers.
func (t *Trajectory) Steps() int { return t.steps }

// N returns the node count of the recorded world.
func (t *Trajectory) N() int { return t.n }

// AnchorEvery returns the anchor/lane-reset cadence in steps.
func (t *Trajectory) AnchorEvery() int { return t.every }

// Dynamic reports whether the recorded world was dynamic.
func (t *Trajectory) Dynamic() bool { return t.dynamic }

// Records returns how many non-empty step records the stream holds.
func (t *Trajectory) Records() int { return t.records }

// StartSnapshot returns the JSON snapshot of the recorded world's start
// state. Callers must not modify it.
func (t *Trajectory) StartSnapshot() []byte { return t.start }

// Anchors returns the stored snapshot anchors. Callers must not modify.
func (t *Trajectory) Anchors() []TrajAnchor { return t.anchors }

// World builds a fresh replay world positioned at the trajectory's start.
// Every Step on it applies the next recorded delta instead of running
// mobility, decay, or topology maintenance; stepping past Steps() panics.
// Worlds from the same Trajectory are independent (the shared data is read
// only), so concurrent replications are race-free.
func (t *Trajectory) World() (*World, error) {
	w, err := t.snap.World()
	if err != nil {
		return nil, err
	}
	// The snapshot build aliases adjacency rows in one flat CSR array;
	// replay mutates rows surgically, so migrate them to owned storage
	// once, exactly as the incremental engine does.
	w.topo.OwnRows(8)
	// Replay worlds observe like the recorded one: Dynamic() must agree so
	// callers (and re-recording) see the same world shape. The dispatch in
	// Step routes every call to the trajectory before any dynamic branch.
	w.dynamic = t.dynamic
	w.traj = newTrajDecoder(t)
	return w, nil
}

// hashInput assembles the bytes the config hash covers: the framing ints
// and the start snapshot, so a hash mismatch catches a trajectory applied
// to the wrong world shape.
func (t *Trajectory) hashInput() []byte {
	b := make([]byte, 0, len(t.start)+32)
	b = binary.AppendUvarint(b, uint64(t.n))
	b = binary.AppendUvarint(b, uint64(t.steps))
	b = binary.AppendUvarint(b, uint64(t.every))
	if t.dynamic {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return append(b, t.start...)
}

// ---------------------------------------------------------------------------
// Recording

// TrajectoryRecorder captures a live world's per-step churn into a
// Trajectory. It only observes — it never mutates the world or consumes RNG
// — so recording cannot perturb a seeded run. Protocol:
//
//	rec, err := NewTrajectoryRecorder(w, every) // world at its start state
//	for i := 0; i < steps; i++ { w.Step(); rec.AfterStep() }
//	traj := rec.Finish()
type TrajectoryRecorder struct {
	w     *World
	t     *Trajectory
	every int

	steps int  // AfterStep calls so far
	gap   int  // empty steps since the last emitted record
	dirty bool // a record was emitted since the last stored anchor
	era   int

	prevX, prevY, prevRange     []float64
	prevEpoch                   int
	prevInjected, prevRecovered uint64
	prevOff                     []int32
	prevDst                     []NodeID

	xs, ys, rs []trajLane

	movedIDs, rangeIDs     []int32
	addU, addV, remU, remV []int32
}

// NewTrajectoryRecorder starts recording w; every <= 0 uses
// DefaultAnchorEvery. The world's current state becomes the trajectory's
// start snapshot, so construct the recorder before the first Step.
func NewTrajectoryRecorder(w *World, every int) (*TrajectoryRecorder, error) {
	if every <= 0 {
		every = DefaultAnchorEvery
	}
	snap := w.Snapshot()
	start, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("network: marshalling trajectory start snapshot: %w", err)
	}
	n := w.N()
	r := &TrajectoryRecorder{
		w:     w,
		every: every,
		t: &Trajectory{
			n:       n,
			every:   every,
			dynamic: w.dynamic,
			start:   start,
			snap:    snap,
		},
		prevX:     make([]float64, n),
		prevY:     make([]float64, n),
		prevRange: make([]float64, n),
		prevEpoch: w.FaultEpoch(),
		xs:        make([]trajLane, n),
		ys:        make([]trajLane, n),
		rs:        make([]trajLane, n),
	}
	if f := w.flt; f != nil {
		r.prevInjected, r.prevRecovered = f.injectedTotal, f.recoveredTotal
	}
	for u := 0; u < n; u++ {
		p := w.pos[u]
		r.prevX[u], r.prevY[u] = p.X, p.Y
		r.prevRange[u] = w.radios[u].Range()
	}
	r.captureTopo()
	return r, nil
}

// captureTopo copies the world's adjacency into the recorder's flat CSR
// baseline.
func (r *TrajectoryRecorder) captureTopo() {
	g := r.w.topo
	n := r.w.N()
	r.prevOff = append(r.prevOff[:0], 0)
	r.prevDst = r.prevDst[:0]
	for u := 0; u < n; u++ {
		r.prevDst = append(r.prevDst, g.Out(NodeID(u))...)
		r.prevOff = append(r.prevOff, int32(len(r.prevDst)))
	}
}

// diffTopo merges each node's previous and current sorted out-lists into
// the add/remove churn lists — O(E_prev + E_cur) total.
func (r *TrajectoryRecorder) diffTopo() {
	r.addU, r.addV = r.addU[:0], r.addV[:0]
	r.remU, r.remV = r.remU[:0], r.remV[:0]
	g := r.w.topo
	n := r.w.N()
	for u := 0; u < n; u++ {
		prev := r.prevDst[r.prevOff[u]:r.prevOff[u+1]]
		cur := g.Out(NodeID(u))
		i, j := 0, 0
		for i < len(prev) && j < len(cur) {
			switch {
			case prev[i] == cur[j]:
				i++
				j++
			case prev[i] < cur[j]:
				r.remU = append(r.remU, int32(u))
				r.remV = append(r.remV, int32(prev[i]))
				i++
			default:
				r.addU = append(r.addU, int32(u))
				r.addV = append(r.addV, int32(cur[j]))
				j++
			}
		}
		for ; i < len(prev); i++ {
			r.remU = append(r.remU, int32(u))
			r.remV = append(r.remV, int32(prev[i]))
		}
		for ; j < len(cur); j++ {
			r.addU = append(r.addU, int32(u))
			r.addV = append(r.addV, int32(cur[j]))
		}
	}
}

// AfterStep records the delta between the world's previous and current
// state. Call immediately after every World.Step.
func (r *TrajectoryRecorder) AfterStep() {
	w := r.w
	r.steps++
	rel := r.steps
	faultChanged := w.FaultEpoch() != r.prevEpoch
	if w.dynamic || faultChanged {
		r.emitDiff(rel, faultChanged)
	} else {
		// Static world between fault epochs: nothing can have changed.
		r.gap++
	}
	if rel%r.every == 0 && r.dirty {
		if b, err := json.Marshal(w.Snapshot()); err == nil {
			r.t.anchors = append(r.t.anchors, TrajAnchor{Step: rel, Snap: b})
			r.dirty = false
		}
	}
}

func (r *TrajectoryRecorder) emitDiff(rel int, faultChanged bool) {
	w := r.w
	n := w.N()
	r.movedIDs, r.rangeIDs = r.movedIDs[:0], r.rangeIDs[:0]
	for u := 0; u < n; u++ {
		p := w.pos[u]
		if p.X != r.prevX[u] || p.Y != r.prevY[u] {
			r.movedIDs = append(r.movedIDs, int32(u))
		}
		if rg := w.radios[u].Range(); rg != r.prevRange[u] {
			r.rangeIDs = append(r.rangeIDs, int32(u))
		}
	}
	r.diffTopo()
	var flags byte
	if len(r.movedIDs) > 0 {
		flags |= trajMoved
	}
	if len(r.rangeIDs) > 0 {
		flags |= trajRanges
	}
	if len(r.addU) > 0 {
		flags |= trajAdds
	}
	if len(r.remU) > 0 {
		flags |= trajRemoves
	}
	if faultChanged {
		flags |= trajFault
	}
	if flags == 0 {
		r.gap++
		return
	}
	if era := (rel - 1) / r.every; era != r.era {
		resetTrajLanes(r.xs)
		resetTrajLanes(r.ys)
		resetTrajLanes(r.rs)
		r.era = era
	}
	t := r.t
	t.data = binary.AppendUvarint(t.data, uint64(r.gap))
	t.data = append(t.data, flags)
	r.gap = 0
	if flags&trajMoved != 0 {
		t.data = trajAppendIDs(t.data, r.movedIDs)
		for _, u := range r.movedIDs {
			bits := math.Float64bits(w.pos[u].X)
			t.data = binary.AppendUvarint(t.data, trajXorLane(r.xs, int(u), bits))
			r.prevX[u] = w.pos[u].X
		}
		for _, u := range r.movedIDs {
			bits := math.Float64bits(w.pos[u].Y)
			t.data = binary.AppendUvarint(t.data, trajXorLane(r.ys, int(u), bits))
			r.prevY[u] = w.pos[u].Y
		}
	}
	if flags&trajRanges != 0 {
		t.data = trajAppendIDs(t.data, r.rangeIDs)
		for _, u := range r.rangeIDs {
			rg := w.radios[u].Range()
			t.data = binary.AppendUvarint(t.data, trajXorLane(r.rs, int(u), math.Float64bits(rg)))
			r.prevRange[u] = rg
		}
	}
	if flags&trajAdds != 0 {
		t.data = trajAppendPairs(t.data, r.addU, r.addV)
	}
	if flags&trajRemoves != 0 {
		t.data = trajAppendPairs(t.data, r.remU, r.remV)
	}
	if flags&trajAdds != 0 || flags&trajRemoves != 0 {
		r.captureTopo()
	}
	if faultChanged {
		r.prevEpoch = w.FaultEpoch()
		f := w.flt
		var dead, gwDown []int32
		var part bool
		var partX float64
		var injected, recovered uint64
		if f != nil {
			for u := 0; u < n; u++ {
				if f.dead[u] {
					dead = append(dead, int32(u))
				}
				if f.gwDown[u] {
					gwDown = append(gwDown, int32(u))
				}
			}
			part, partX = f.partActive, f.partX
			injected = f.injectedTotal - r.prevInjected
			recovered = f.recoveredTotal - r.prevRecovered
			r.prevInjected, r.prevRecovered = f.injectedTotal, f.recoveredTotal
		}
		t.data = trajAppendIDs(t.data, dead)
		t.data = trajAppendIDs(t.data, gwDown)
		if part {
			t.data = append(t.data, 1)
			t.data = binary.LittleEndian.AppendUint64(t.data, math.Float64bits(partX))
		} else {
			t.data = append(t.data, 0)
		}
		t.data = binary.AppendUvarint(t.data, injected)
		t.data = binary.AppendUvarint(t.data, recovered)
	}
	t.records++
	r.dirty = true
}

// Finish seals and returns the trajectory. The recorder must not be used
// afterwards.
func (r *TrajectoryRecorder) Finish() *Trajectory {
	t := r.t
	t.steps = r.steps
	t.hash = trace.ConfigHashOf(t.hashInput())
	return t
}

// RecordTrajectory steps w `steps` times, recording every delta, and
// returns the sealed trajectory. every <= 0 uses DefaultAnchorEvery.
func RecordTrajectory(w *World, steps, every int) (*Trajectory, error) {
	if steps < 0 {
		return nil, fmt.Errorf("network: trajectory steps must be non-negative, got %d", steps)
	}
	rec, err := NewTrajectoryRecorder(w, every)
	if err != nil {
		return nil, err
	}
	for i := 0; i < steps; i++ {
		w.Step()
		rec.AfterStep()
	}
	return rec.Finish(), nil
}

// TrajectorySource records a trajectory at most once and hands out
// independent replay worlds — RunMany's worldFor shape. The record phase is
// sync.Once-guarded, so concurrent sweep points and parallel replications
// share one recording safely.
type TrajectorySource struct {
	steps int
	every int
	sched *faults.Schedule
	build func() (*World, error)

	once sync.Once
	traj *Trajectory
	err  error
}

// NewTrajectorySource prepares a lazy record-once source: the first
// WorldFor (or Trajectory) call builds a live world via build, attaches
// sched (if any), records steps steps, and caches the result.
func NewTrajectorySource(steps, anchorEvery int, sched *faults.Schedule, build func() (*World, error)) *TrajectorySource {
	return &TrajectorySource{steps: steps, every: anchorEvery, sched: sched, build: build}
}

// Trajectory returns the recorded trajectory, recording it on first call.
func (s *TrajectorySource) Trajectory() (*Trajectory, error) {
	s.once.Do(func() {
		w, err := s.build()
		if err != nil {
			s.err = err
			return
		}
		if s.sched != nil {
			w.SetFaults(s.sched)
		}
		s.traj, s.err = RecordTrajectory(w, s.steps, s.every)
	})
	return s.traj, s.err
}

// WorldFor returns a fresh replay world per call (the run index is unused —
// every replication replays the same environment, as the paper prescribes).
func (s *TrajectorySource) WorldFor(int) (*World, error) {
	t, err := s.Trajectory()
	if err != nil {
		return nil, err
	}
	return t.World()
}

// ---------------------------------------------------------------------------
// Replay

// StepFromTrajectory advances a replay world one step by applying the next
// recorded delta — O(changes), no mobility RNG, no disc scans, no grid.
// Step dispatches here automatically for worlds built by Trajectory.World;
// calling it on a world without a trajectory, or past the recorded horizon,
// panics (the harness contract is steps <= Trajectory.Steps()).
func (w *World) StepFromTrajectory() {
	c := w.traj
	if c == nil {
		panic("network: StepFromTrajectory on a world without an attached trajectory")
	}
	if c.rel >= c.t.steps {
		panic(fmt.Sprintf("network: trajectory exhausted: world stepped past the %d recorded steps", c.t.steps))
	}
	w.step++
	w.m.steps.Inc()
	if w.watch != nil {
		w.watch.reset(w.step)
	}
	has, err := c.next()
	if err != nil {
		// Trajectories are validated at build/unmarshal time; reaching this
		// means the caller bypassed validation or mutated shared data.
		panic(fmt.Sprintf("network: %v during replay at step %d", err, c.rel))
	}
	if !has {
		return
	}
	for i, u := range c.moved {
		w.pos[u] = geom.Point{X: c.movedX[i], Y: c.movedY[i]}
	}
	for i, u := range c.rangeIDs {
		w.radios[u] = radio.New(c.ranges[i])
	}
	if len(c.addU) > 0 || len(c.remU) > 0 {
		for i := range c.addU {
			w.topo.InsertEdgeSorted(NodeID(c.addU[i]), NodeID(c.addV[i]))
		}
		for i := range c.remU {
			w.topo.RemoveEdgeSorted(NodeID(c.remU[i]), NodeID(c.remV[i]))
		}
		w.m.linksAdded.Add(uint64(len(c.addU)))
		w.m.linksRemoved.Add(uint64(len(c.remU)))
		w.m.edges.Set(float64(w.topo.M()))
		if dl := w.watch; dl != nil {
			// Recorded deltas are exact diffs, so replay keeps watchers
			// incremental even across fault steps (the recording diffed the
			// topology straight through the live rebuild). A fault record
			// still forces a resync via the epoch advance consumers track.
			for i := range c.addU {
				dl.add(NodeID(c.addU[i]), NodeID(c.addV[i]))
			}
			for i := range c.remU {
				dl.remove(NodeID(c.remU[i]), NodeID(c.remV[i]))
			}
		}
	}
	if c.faultRec {
		w.applyTrajFault(c.dead, c.gwDown, c.part, c.partX, c.injected, c.recovered)
	}
}

// TrajectoryRemaining returns how many recorded steps are left to replay;
// 0 for worlds without an attached trajectory.
func (w *World) TrajectoryRemaining() int {
	if w.traj == nil {
		return 0
	}
	return w.traj.t.steps - w.traj.rel
}

// applyTrajFault installs one recorded fault-epoch transition: the full
// masks replace the current ones (records carry absolute state, so replay
// needs no event semantics), and the faults_* instruments advance by the
// recorded injected/recovered counts — identical to the live counters.
func (w *World) applyTrajFault(dead, gwDown []int32, part bool, partX float64, injected, recovered uint64) {
	if w.flt == nil {
		w.initFaultState()
	}
	f := w.flt
	for i := range f.dead {
		f.dead[i] = false
	}
	for i := range f.gwDown {
		f.gwDown[i] = false
	}
	for _, u := range dead {
		f.dead[u] = true
	}
	for _, g := range gwDown {
		f.gwDown[g] = true
	}
	f.aliveCount = w.N() - len(dead)
	f.partActive, f.partX = part, partX
	w.refreshActiveGateways()
	f.epoch++
	f.injectedTotal += injected
	f.recoveredTotal += recovered
	// LastFaultEvents comes from the schedule the harness attached; replay
	// itself never consults it for state.
	f.lastEvents = f.sched.At(w.step)
	w.m.faultsInjected.Add(injected)
	w.m.faultsRecovered.Add(recovered)
	w.m.faultsNodesDown.Set(float64(len(dead)))
}

// trajDecoder walks the delta stream one step at a time, maintaining the
// same predictor lanes and era resets as the encoder. It doubles as the
// validation walker (validate) and the per-world replay cursor (World).
type trajDecoder struct {
	t    *Trajectory
	pos  int
	rel  int // steps consumed so far
	era  int
	gap  int  // empty steps remaining before the next record; -1 = unloaded
	rest bool // no more records: every remaining step is empty

	xs, ys, rs []trajLane

	moved, rangeIDs        []int32
	movedX, movedY, ranges []float64
	addU, addV, remU, remV []int32
	dead, gwDown           []int32
	part                   bool
	partX                  float64
	injected, recovered    uint64
	faultRec               bool
}

func newTrajDecoder(t *Trajectory) *trajDecoder {
	return &trajDecoder{
		t:   t,
		gap: -1,
		xs:  make([]trajLane, t.n),
		ys:  make([]trajLane, t.n),
		rs:  make([]trajLane, t.n),
	}
}

// next consumes one step: it reports whether this step carries a record
// (decoded into the cursor's fields) or is empty.
func (d *trajDecoder) next() (bool, error) {
	d.rel++
	if d.gap < 0 {
		if d.pos >= len(d.t.data) {
			d.rest = true
		} else {
			g, err := d.uvarint()
			if err != nil {
				return false, err
			}
			if g > uint64(d.t.steps) {
				return false, trajCorrupt("step gap %d exceeds the %d-step horizon", g, d.t.steps)
			}
			d.gap = int(g)
		}
	}
	if d.rest {
		return false, nil
	}
	if d.gap > 0 {
		d.gap--
		return false, nil
	}
	d.gap = -1
	return true, d.decodeRecord()
}

func (d *trajDecoder) decodeRecord() error {
	d.faultRec = false
	if era := (d.rel - 1) / d.t.every; era != d.era {
		resetTrajLanes(d.xs)
		resetTrajLanes(d.ys)
		resetTrajLanes(d.rs)
		d.era = era
	}
	flags, err := d.byte()
	if err != nil {
		return err
	}
	if flags == 0 || flags&^byte(trajAllFlags) != 0 {
		return trajCorrupt("invalid record flags %#x at step %d", flags, d.rel)
	}
	n := d.t.n
	if flags&trajMoved != 0 {
		if d.moved, err = d.ids(d.moved[:0], n); err != nil {
			return err
		}
		d.movedX, d.movedY = d.movedX[:0], d.movedY[:0]
		for _, u := range d.moved {
			bits, err := d.lane(d.xs, int(u))
			if err != nil {
				return err
			}
			d.movedX = append(d.movedX, math.Float64frombits(bits))
		}
		for _, u := range d.moved {
			bits, err := d.lane(d.ys, int(u))
			if err != nil {
				return err
			}
			d.movedY = append(d.movedY, math.Float64frombits(bits))
		}
	} else {
		d.moved = d.moved[:0]
	}
	if flags&trajRanges != 0 {
		if d.rangeIDs, err = d.ids(d.rangeIDs[:0], n); err != nil {
			return err
		}
		d.ranges = d.ranges[:0]
		for _, u := range d.rangeIDs {
			bits, err := d.lane(d.rs, int(u))
			if err != nil {
				return err
			}
			v := math.Float64frombits(bits)
			if v < 0 {
				return trajCorrupt("negative radio range for node %d at step %d", u, d.rel)
			}
			d.ranges = append(d.ranges, v)
		}
	} else {
		d.rangeIDs = d.rangeIDs[:0]
	}
	if flags&trajAdds != 0 {
		if d.addU, d.addV, err = d.pairs(d.addU[:0], d.addV[:0], n); err != nil {
			return err
		}
	} else {
		d.addU, d.addV = d.addU[:0], d.addV[:0]
	}
	if flags&trajRemoves != 0 {
		if d.remU, d.remV, err = d.pairs(d.remU[:0], d.remV[:0], n); err != nil {
			return err
		}
	} else {
		d.remU, d.remV = d.remU[:0], d.remV[:0]
	}
	if flags&trajFault != 0 {
		d.faultRec = true
		if d.dead, err = d.ids(d.dead[:0], n); err != nil {
			return err
		}
		if d.gwDown, err = d.ids(d.gwDown[:0], n); err != nil {
			return err
		}
		pb, err := d.byte()
		if err != nil {
			return err
		}
		switch pb {
		case 0:
			d.part, d.partX = false, 0
		case 1:
			bits, err := d.u64()
			if err != nil {
				return err
			}
			d.part, d.partX = true, math.Float64frombits(bits)
		default:
			return trajCorrupt("invalid partition marker %d at step %d", pb, d.rel)
		}
		if d.injected, err = d.uvarint(); err != nil {
			return err
		}
		if d.recovered, err = d.uvarint(); err != nil {
			return err
		}
	}
	return nil
}

// validate runs the full decode walk over the stream, checking every bound
// the replay apply path relies on, so a trajectory that validates can never
// panic or build a divergent world during replay.
func (t *Trajectory) validate() error {
	if t.n <= 0 || t.steps < 0 || t.every <= 0 {
		return trajCorrupt("invalid framing: n=%d steps=%d every=%d", t.n, t.steps, t.every)
	}
	if len(t.snap.Positions) != t.n {
		return trajCorrupt("start snapshot has %d nodes, header says %d", len(t.snap.Positions), t.n)
	}
	prevAnchor := 0
	for i, a := range t.anchors {
		if a.Step <= prevAnchor || a.Step > t.steps || a.Step%t.every != 0 {
			return trajCorrupt("anchor %d at step %d is out of order or off the %d-step cadence", i, a.Step, t.every)
		}
		prevAnchor = a.Step
		var s Snapshot
		if err := json.Unmarshal(a.Snap, &s); err != nil {
			return trajCorrupt("anchor %d does not parse: %v", i, err)
		}
		if len(s.Positions) != t.n {
			return trajCorrupt("anchor %d has %d nodes, want %d", i, len(s.Positions), t.n)
		}
	}
	d := newTrajDecoder(t)
	records := 0
	for rel := 1; rel <= t.steps; rel++ {
		has, err := d.next()
		if err != nil {
			return err
		}
		if has {
			records++
		}
	}
	if !d.rest && d.gap > 0 {
		return trajCorrupt("step gap overruns the %d-step horizon", t.steps)
	}
	if d.pos != len(t.data) {
		return trajCorrupt("%d trailing bytes after the final record", len(t.data)-d.pos)
	}
	if records != t.records {
		return trajCorrupt("stream holds %d records, header says %d", records, t.records)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Primitive codec (mirrors the trace binlog idioms)

// trajLane is one node's predictor context in a float lane: the bit
// patterns of its last two values and how many the chain has seen.
type trajLane struct {
	v1, v2 uint64
	seen   uint8
}

func resetTrajLanes(l []trajLane) {
	for i := range l {
		l[i] = trajLane{}
	}
}

// trajPredict returns the predicted bit pattern for lane u's next value: 0
// before any sample, the previous value after one, then the linear
// extrapolation 2*v1 - v2 — both single correctly-rounded IEEE ops, so
// encoder and decoder agree bit for bit on any platform.
func trajPredict(l []trajLane, u int) uint64 {
	st := l[u]
	switch st.seen {
	case 0:
		return 0
	case 1:
		return st.v1
	default:
		return math.Float64bits(2*math.Float64frombits(st.v1) - math.Float64frombits(st.v2))
	}
}

func trajPush(l []trajLane, u int, bits uint64) {
	st := &l[u]
	st.v2, st.v1 = st.v1, bits
	if st.seen < 2 {
		st.seen++
	}
}

func trajXorLane(l []trajLane, u int, bits uint64) uint64 {
	out := bits ^ trajPredict(l, u)
	trajPush(l, u, bits)
	return out
}

// trajAppendIDs writes a strictly ascending id list as a count plus deltas.
func trajAppendIDs(b []byte, ids []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	prev := int32(0)
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id-prev))
		prev = id
	}
	return b
}

// trajAppendPairs writes an edge list sorted by (u, v) as a count plus
// (du, dv) gaps; dv restarts from zero whenever u advances.
func trajAppendPairs(b []byte, us, vs []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(us)))
	prevU, prevV := int32(0), int32(0)
	for i := range us {
		u, v := us[i], vs[i]
		du := u - prevU
		if du > 0 {
			prevV = 0
		}
		b = binary.AppendUvarint(b, uint64(du))
		b = binary.AppendUvarint(b, uint64(v-prevV))
		prevU, prevV = u, v
	}
	return b
}

func (d *trajDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.t.data[d.pos:])
	if n <= 0 {
		return 0, trajCorrupt("truncated varint at byte %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *trajDecoder) byte() (byte, error) {
	if d.pos >= len(d.t.data) {
		return 0, trajCorrupt("truncated record at byte %d", d.pos)
	}
	b := d.t.data[d.pos]
	d.pos++
	return b, nil
}

func (d *trajDecoder) u64() (uint64, error) {
	if d.pos+8 > len(d.t.data) {
		return 0, trajCorrupt("truncated float at byte %d", d.pos)
	}
	v := binary.LittleEndian.Uint64(d.t.data[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *trajDecoder) lane(l []trajLane, u int) (uint64, error) {
	wire, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	bits := wire ^ trajPredict(l, u)
	trajPush(l, u, bits)
	return bits, nil
}

// ids decodes a strictly ascending id list with every id in [0, n).
func (d *trajDecoder) ids(dst []int32, n int) ([]int32, error) {
	count, err := d.uvarint()
	if err != nil {
		return dst, err
	}
	if count > uint64(n) {
		return dst, trajCorrupt("id list of %d entries exceeds the %d nodes", count, n)
	}
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		delta, err := d.uvarint()
		if err != nil {
			return dst, err
		}
		if delta >= uint64(n) {
			return dst, trajCorrupt("id delta %d exceeds the %d nodes at step %d", delta, n, d.rel)
		}
		id := prev + int64(delta)
		if i > 0 && delta == 0 {
			return dst, trajCorrupt("id list not strictly ascending at step %d", d.rel)
		}
		if id >= int64(n) {
			return dst, trajCorrupt("id %d out of range [0,%d) at step %d", id, n, d.rel)
		}
		dst = append(dst, int32(id))
		prev = id
	}
	return dst, nil
}

// pairs decodes an edge list sorted by (u, v), rejecting self-loops,
// duplicates, and out-of-range endpoints.
func (d *trajDecoder) pairs(us, vs []int32, n int) ([]int32, []int32, error) {
	count, err := d.uvarint()
	if err != nil {
		return us, vs, err
	}
	if count > uint64(n)*uint64(n) {
		return us, vs, trajCorrupt("edge list of %d entries exceeds n² at step %d", count, d.rel)
	}
	prevU, prevV := int64(0), int64(0)
	first := true
	for i := uint64(0); i < count; i++ {
		du, err := d.uvarint()
		if err != nil {
			return us, vs, err
		}
		dv, err := d.uvarint()
		if err != nil {
			return us, vs, err
		}
		if du >= uint64(n) || dv >= uint64(n) {
			return us, vs, trajCorrupt("edge delta (%d,%d) exceeds the %d nodes at step %d", du, dv, n, d.rel)
		}
		u := prevU + int64(du)
		if du > 0 {
			prevV = 0
		} else if !first && dv == 0 {
			return us, vs, trajCorrupt("edge list not strictly ascending at step %d", d.rel)
		}
		v := prevV + int64(dv)
		if u >= int64(n) || v >= int64(n) {
			return us, vs, trajCorrupt("edge %d→%d out of range [0,%d) at step %d", u, v, n, d.rel)
		}
		if u == v {
			return us, vs, trajCorrupt("self-loop %d→%d at step %d", u, v, d.rel)
		}
		us = append(us, int32(u))
		vs = append(vs, int32(v))
		prevU, prevV = u, v
		first = false
	}
	return us, vs, nil
}

// ---------------------------------------------------------------------------
// Serialisation (disk-backed reuse across processes)

// MarshalBinary serialises the trajectory with the trace binlog's framing
// idioms: a magic + version header, varint-framed sections, an FNV-64a
// config hash over the framing and start snapshot, and a CRC32-IEEE
// trailer over everything before it.
func (t *Trajectory) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, len(t.data)+len(t.start)+64)
	b = append(b, trajMagic...)
	b = binary.AppendUvarint(b, trajVersion)
	b = binary.AppendUvarint(b, uint64(t.n))
	b = binary.AppendUvarint(b, uint64(t.steps))
	b = binary.AppendUvarint(b, uint64(t.every))
	if t.dynamic {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(t.start)))
	b = append(b, t.start...)
	b = binary.AppendUvarint(b, uint64(len(t.anchors)))
	for _, a := range t.anchors {
		b = binary.AppendUvarint(b, uint64(a.Step))
		b = binary.AppendUvarint(b, uint64(len(a.Snap)))
		b = append(b, a.Snap...)
	}
	b = binary.AppendUvarint(b, uint64(t.records))
	b = binary.AppendUvarint(b, uint64(len(t.data)))
	b = append(b, t.data...)
	b = binary.LittleEndian.AppendUint64(b, t.hash)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// UnmarshalTrajectory decodes and fully validates a serialised trajectory:
// a corrupted stream — truncated churn lists, bit-flipped anchors, a
// mismatched config hash — yields a clean ErrTrajectoryCorrupt-wrapped
// error, never a panic or a divergent replay world.
func UnmarshalTrajectory(b []byte) (*Trajectory, error) {
	if len(b) < len(trajMagic)+4 {
		return nil, trajCorrupt("short buffer: %d bytes", len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, trajCorrupt("CRC mismatch: stored %08x, computed %08x", got, want)
	}
	if string(body[:len(trajMagic)]) != trajMagic {
		return nil, trajCorrupt("bad magic %q", body[:len(trajMagic)])
	}
	r := trajFields{b: body, pos: len(trajMagic)}
	version := r.uvarint()
	if version > trajVersion {
		return nil, trajCorrupt("version %d is newer than the supported %d", version, trajVersion)
	}
	t := &Trajectory{}
	t.n = int(r.uvarint())
	t.steps = int(r.uvarint())
	t.every = int(r.uvarint())
	t.dynamic = r.byte() == 1
	t.start = r.bytes(int(r.uvarint()))
	anchors := int(r.uvarint())
	if r.err == nil && anchors >= 0 && anchors <= t.steps {
		for i := 0; i < anchors && r.err == nil; i++ {
			step := int(r.uvarint())
			t.anchors = append(t.anchors, TrajAnchor{Step: step, Snap: r.bytes(int(r.uvarint()))})
		}
	} else if r.err == nil {
		return nil, trajCorrupt("anchor count %d exceeds the %d-step horizon", anchors, t.steps)
	}
	t.records = int(r.uvarint())
	t.data = r.bytes(int(r.uvarint()))
	t.hash = r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		// t.hash is the final header field; anything left over is junk.
		return nil, trajCorrupt("%d trailing bytes before the checksum", len(body)-r.pos)
	}
	if t.records < 0 || t.records > t.steps {
		return nil, trajCorrupt("record count %d outside [0,%d]", t.records, t.steps)
	}
	if err := json.Unmarshal(t.start, &t.snap); err != nil {
		return nil, trajCorrupt("start snapshot does not parse: %v", err)
	}
	if want := trace.ConfigHashOf(t.hashInput()); want != t.hash {
		return nil, trajCorrupt("config hash mismatch: stored %016x, computed %016x", t.hash, want)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Save writes the serialised trajectory to path.
func (t *Trajectory) Save(path string) error {
	b, err := t.MarshalBinary()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// LoadTrajectory reads and validates a trajectory file written by Save.
func LoadTrajectory(path string) (*Trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalTrajectory(b)
}

// trajFields is a forgiving little reader for the serialised header: it
// latches the first error so field parsing reads naturally.
type trajFields struct {
	b   []byte
	pos int
	err error
}

func (r *trajFields) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.err = trajCorrupt("truncated header field at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *trajFields) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.err = trajCorrupt("truncated header at byte %d", r.pos)
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *trajFields) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.b) {
		r.err = trajCorrupt("truncated header at byte %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

func (r *trajFields) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.b) {
		r.err = trajCorrupt("truncated %d-byte section at byte %d", n, r.pos)
		return nil
	}
	v := r.b[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return v
}
