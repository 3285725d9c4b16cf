// Package mapping implements the paper's first scenario: a team of mobile
// agents cooperatively builds the full topology map of a (mostly) static
// wireless network. Each simulated step every agent (1) learns the edges
// off its current node first-hand, (2) learns everything it can from
// co-located agents, (3) chooses its next node — filtered through
// stigmergic footprints if enabled — and (4) moves.
//
// The headline metric is the finishing time: the first step at which every
// agent's map is complete, which measures the team, not any individual.
package mapping

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stigmergy"
	"repro/internal/trace"
)

// NodeID aliases network.NodeID.
type NodeID = network.NodeID

// TeamSpec is one homogeneous slice of a mixed team.
type TeamSpec struct {
	Kind  core.PolicyKind
	Count int
}

// Scenario configures one mapping experiment.
type Scenario struct {
	// Agents is the population size.
	Agents int
	// Kind selects the movement policy for every agent.
	Kind core.PolicyKind
	// Team, when non-empty, overrides Agents/Kind with a mixed
	// population — the paper's "diversity of the agent types" dimension.
	// Agents are created in slice order, so agent IDs are deterministic.
	// Counts must be non-negative and sum to at least one.
	Team []TeamSpec
	// Stigmergy enables footprints.
	Stigmergy bool
	// Cooperate lets co-located agents exchange topology knowledge.
	// Single-agent runs are unaffected.
	Cooperate bool
	// Epsilon is Minar's randomness fix (0 disables).
	Epsilon float64
	// VisitCapacity bounds agent visit memory (0 = unbounded).
	VisitCapacity int
	// MaxSteps bounds the run (default 50000).
	MaxSteps int
	// Workers is not read by any code.
	//
	// Deprecated: ignored; results never depended on it.
	Workers int
	// RunWorkers is the number of independent runs RunMany may execute
	// concurrently (0/1 = sequential). Replication is embarrassingly
	// parallel, so aggregates are bit-identical at any value; extra
	// goroutines come from the shared parallel budget. Parallel
	// replication requires worldFor to return a fresh world per run (even
	// static worlds are stepped), which RunMany enforces. A Tracer forces
	// sequential execution so the shared sink observes runs in order.
	RunWorkers int
	// ShardWorkers is not read by any code.
	//
	// Deprecated: ignored; results never depended on it.
	ShardWorkers int
	// Faults, if set, is a fault schedule attached to the world before
	// the run (see internal/faults). The mapping reaction is minimal:
	// agents caught on a node killed by churn are respawned on a
	// uniformly random alive node with their knowledge intact — the map
	// is software state and survives the crash. Note that completion may
	// become unreachable while parts of the network stay dead; MaxSteps
	// still bounds the run.
	Faults *faults.Schedule
	// Tracer, if set, receives structured events (moves, meetings,
	// per-step knowledge). Events are emitted in a fixed order, so traces
	// are reproducible. A Tracer that also implements trace.WorldSink (the
	// binary LogWriter does) additionally receives snapshot anchors every
	// AnchorEvery steps and per-step world deltas, making the log
	// replayable offline.
	Tracer trace.Tracer
	// AnchorEvery is the snapshot-anchor cadence for WorldSink tracers
	// (<= 0 uses network.DefaultAnchorEvery). Ignored for plain tracers.
	AnchorEvery int
	// Metrics, if set, receives live instrumentation: per-step phase
	// timers, domain counters (moves, meetings by size, knowledge-record
	// merges, marks), and knowledge gauges. Instruments sit outside every
	// RNG consumption path, so attaching a registry cannot change seeded
	// results. nil disables with near-zero overhead.
	Metrics *metrics.Registry
}

// stigPerNode sizes the footprint board: three marks per node (marks never
// expire; displacement is the only forgetting).
const stigPerNode = 3

func (sc Scenario) withDefaults() Scenario {
	if len(sc.Team) > 0 {
		sc.Agents = 0
		for _, t := range sc.Team {
			sc.Agents += t.Count
		}
	}
	if sc.Agents <= 0 {
		sc.Agents = 1
	}
	if sc.Kind == 0 {
		sc.Kind = core.PolicyConscientious
	}
	if sc.MaxSteps <= 0 {
		sc.MaxSteps = 50000
	}
	return sc
}

// Result reports one mapping run.
type Result struct {
	// Finished reports whether every agent completed its map in budget.
	Finished bool
	// FinishStep is the completion step (valid when Finished).
	FinishStep int
	// Curve is the team-average knowledge fraction after each step.
	Curve []float64
	// MinCurve is the slowest agent's knowledge fraction after each step
	// (the curve whose arrival at 1.0 defines the finishing time).
	MinCurve []float64
	// Overhead aggregates all agents' cost counters.
	Overhead core.Overhead
	// Stranded counts agents respawned off dead nodes over the run (fault
	// injection only; zero otherwise).
	Stranded int
}

// runMetrics bundles the mapping harness's instrument handles. The zero
// value (no registry) makes every operation a no-op; enabled additionally
// gates the per-step O(agents) overhead-delta sweep.
type runMetrics struct {
	enabled bool

	runs      metrics.Counter
	completed metrics.Counter
	steps     metrics.Counter

	learn   metrics.Timer
	meet    metrics.Timer
	decide  metrics.Timer
	move    metrics.Timer
	measure metrics.Timer

	moves    metrics.Counter
	meetings metrics.Counter
	meetSize metrics.Histogram
	merges   metrics.Counter
	marks    metrics.Counter

	knowAvg     metrics.Gauge
	knowMin     metrics.Gauge
	finishSteps metrics.Histogram

	prevOverhead core.Overhead
}

func newRunMetrics(r *metrics.Registry) runMetrics {
	if r == nil {
		return runMetrics{}
	}
	// Finishing times span single-agent runs (thousands of steps) down to
	// large stigmergic teams (~100): bucket by powers of two.
	finishBounds := []float64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	return runMetrics{
		enabled:     true,
		runs:        r.Counter("mapping_runs_total"),
		completed:   r.Counter("mapping_runs_completed_total"),
		steps:       r.Counter("mapping_steps_total"),
		learn:       r.Timer("mapping_phase_learn_seconds"),
		meet:        r.Timer("mapping_phase_meet_seconds"),
		decide:      r.Timer("mapping_phase_decide_seconds"),
		move:        r.Timer("mapping_phase_move_seconds"),
		measure:     r.Timer("mapping_phase_measure_seconds"),
		moves:       r.Counter("mapping_moves_total"),
		meetings:    r.Counter("mapping_meetings_total"),
		meetSize:    r.Histogram("mapping_meeting_size", nil),
		merges:      r.Counter("mapping_topo_records_merged_total"),
		marks:       r.Counter("mapping_marks_total"),
		knowAvg:     r.Gauge("mapping_knowledge_avg"),
		knowMin:     r.Gauge("mapping_knowledge_min"),
		finishSteps: r.Histogram("mapping_finish_steps", finishBounds),
	}
}

// syncCounts publishes the per-step growth of the agents' overhead
// counters. Runs between phases, so it observes a settled step.
func (m *runMetrics) syncCounts(agents []*core.Agent) {
	if !m.enabled {
		return
	}
	var cur core.Overhead
	for _, a := range agents {
		cur.Add(a.Overhead)
	}
	m.moves.Add(uint64(cur.Moves - m.prevOverhead.Moves))
	m.merges.Add(uint64(cur.TopoRecordsReceived - m.prevOverhead.TopoRecordsReceived))
	m.marks.Add(uint64(cur.MarksLeft - m.prevOverhead.MarksLeft))
	m.prevOverhead = cur
}

// runState carries the per-run buffers a replication worker reuses from
// run to run: the agents, the decided-move slice, the meeting grouper and
// the footprint board. Keeping it on a free list keeps the
// zero-allocation property of a single run intact across a whole RunMany
// batch, sequential or parallel. The zero value is ready.
type runState struct {
	agents  []*core.Agent // reset in place by placeAgents
	next    []NodeID
	grouper *core.Grouper
	meet    core.MeetScratch // every meeting of the run
	board   stigmergy.Board  // reset by each stigmergic run
}

// states holds the idle run states. A collection cannot empty it, so the
// agents' maps, visit tables and trails grow once per process instead of
// once per collection.
var states parallel.FreeList[runState]

// reset sizes st for a run over n nodes with the given agent count.
func (st *runState) reset(n, agents int) {
	if cap(st.next) < agents {
		st.next = make([]NodeID, agents)
	}
	st.next = st.next[:agents]
	if st.grouper == nil {
		st.grouper = core.NewGrouper(n)
	} else {
		st.grouper.Reset(n)
	}
}

// Run executes one mapping run on w with random agent placement drawn from
// seed. Static worlds can be shared across sequential runs; dynamic worlds
// are stepped and should be freshly generated per run.
func Run(w *network.World, sc Scenario, seed uint64) (Result, error) {
	st := states.Get()
	res, err := run(w, sc, seed, st)
	states.Put(st)
	return res, err
}

// run is Run on caller-provided scratch state.
func run(w *network.World, sc Scenario, seed uint64, st *runState) (Result, error) {
	sc = sc.withDefaults()
	if sc.Faults != nil {
		w.SetFaults(sc.Faults)
	}
	root := rng.New(seed).Named("mapping")
	agents, err := placeAgents(w, sc, root, st)
	if err != nil {
		return Result{}, err
	}
	st.reset(w.N(), len(agents))
	var board *stigmergy.Board
	if sc.Stigmergy {
		board = &st.board
		board.Reset(w.N(), stigPerNode)
	}
	next := st.next
	grouper := st.grouper
	res := Result{
		Curve:    make([]float64, 0, 1024),
		MinCurve: make([]float64, 0, 1024),
	}
	m := newRunMetrics(sc.Metrics)
	w.Instrument(sc.Metrics)
	m.runs.Inc()

	var faultRng *rng.Stream
	lastEpoch := 0
	if sc.Faults != nil {
		faultRng = root.Named("faults")
		lastEpoch = w.FaultEpoch()
	}
	// A WorldSink tracer additionally records the world's evolution —
	// snapshot anchors plus per-step deltas — so the run can be replayed
	// offline. The recorder only observes (no RNG, no world mutation), so
	// recording cannot perturb the seeded result.
	var rec *network.StepRecorder
	if sink, ok := sc.Tracer.(trace.WorldSink); ok {
		rec = network.NewStepRecorder(w, sink, sc.AnchorEvery)
	}

	steps, completed := sc.MaxSteps, false
	for step := 0; step < sc.MaxSteps; step++ {
		m.steps.Inc()
		rec.BeforeStep(step)
		// Fault reaction: respawn agents stranded on nodes that died during
		// the previous world step.
		if sc.Faults != nil {
			if ep := w.FaultEpoch(); ep != lastEpoch {
				lastEpoch = ep
				res.Stranded += respawnStranded(w, agents, faultRng, sc.Tracer, step)
			}
		}
		// Phase 1: first-hand learning + visit recording.
		sp := m.learn.Start()
		for _, a := range agents {
			a.RecordHere(step)
			a.LearnNeighbors(w.Neighbors(a.At))
		}
		sp.Stop()
		// Phase 2: meetings, one co-located group at a time.
		sp = m.meet.Start()
		if sc.Cooperate && len(agents) > 1 {
			groups := grouper.Meetings(agents)
			if sc.Tracer != nil || m.enabled {
				for _, g := range groups {
					m.meetings.Inc()
					m.meetSize.Observe(float64(len(g)))
					if sc.Tracer != nil {
						sc.Tracer.Emit(trace.Event{
							Step: step, Kind: trace.KindMeet,
							Node: int32(g[0].At), Value: float64(len(g)),
						})
					}
				}
			}
			for _, g := range groups {
				st.meet.ExchangeTopology(g)
			}
		}
		sp.Stop()
		// Metrics + completion check. The slowest agent and the finish test
		// ride on the cached known-count (an O(1) popcount the topology
		// maintains) — same-denominator fractions order like their integer
		// numerators, so minKnown/n is bit-identical to min over Fraction().
		// The average keeps the original per-agent float summation order.
		sp = m.measure.Start()
		sum := 0.0
		minKnown := int(^uint(0) >> 1)
		for _, a := range agents {
			sum += a.Topo.Fraction()
			if k := a.Topo.KnownCount(); k < minKnown {
				minKnown = k
			}
		}
		total := agents[0].Topo.N()
		min := 1.0 // Fraction() of a 0-node world is defined as 1
		if total > 0 {
			min = float64(minKnown) / float64(total)
		}
		res.Curve = append(res.Curve, sum/float64(len(agents)))
		res.MinCurve = append(res.MinCurve, min)
		sp.Stop()
		m.knowAvg.Set(sum / float64(len(agents)))
		m.knowMin.Set(min)
		if sc.Tracer != nil {
			sc.Tracer.Emit(trace.Event{
				Step: step, Kind: trace.KindMeasure,
				Value: sum / float64(len(agents)), Extra: "avg-knowledge",
			})
			sc.Tracer.Emit(trace.Event{
				Step: step, Kind: trace.KindMeasure,
				Value: min, Extra: "min-knowledge",
			})
		}
		if minKnown >= total {
			m.syncCounts(agents)
			if sc.Tracer != nil {
				sc.Tracer.Emit(trace.Event{Step: step, Kind: trace.KindFinish})
			}
			steps, completed = step+1, true
			break
		}
		// Phase 3: decide + mark, in agent order (board is nil without
		// stigmergy).
		sp = m.decide.Start()
		for _, a := range agents {
			next[a.ID] = a.Decide(board, step, w.Neighbors(a.At))
		}
		sp.Stop()
		// Phase 4: move, then the world itself evolves.
		sp = m.move.Start()
		for _, a := range agents {
			if sc.Tracer != nil && next[a.ID] != a.At {
				sc.Tracer.Emit(trace.Event{
					Step: step, Kind: trace.KindMove,
					Agent: int32(a.ID), Node: int32(a.At), To: int32(next[a.ID]),
				})
			}
			a.MoveTo(next[a.ID], w.IsGateway(next[a.ID]))
		}
		sp.Stop()
		m.syncCounts(agents)
		w.Step()
		rec.AfterWorldStep()
	}

	res.Finished = completed
	if completed {
		res.FinishStep = steps
		m.completed.Inc()
		m.finishSteps.Observe(float64(steps))
	} else {
		res.FinishStep = -1
	}
	for _, a := range agents {
		res.Overhead.Add(a.Overhead)
	}
	return res, nil
}

// placeAgents builds and randomly places the team, recycling the previous
// run's agents from st in place (core.Agent.Reset makes each
// indistinguishable from a fresh one). Agent i takes the kind of the Team
// slice that holds index i, in slice order, or sc.Kind without a Team.
func placeAgents(w *network.World, sc Scenario, root *rng.Stream, st *runState) ([]*core.Agent, error) {
	if len(sc.Team) > 0 {
		total := 0
		for _, t := range sc.Team {
			if t.Count < 0 {
				return nil, fmt.Errorf("mapping: team count %d is negative", t.Count)
			}
			total += t.Count
		}
		if total == 0 {
			return nil, fmt.Errorf("mapping: team has no agents")
		}
	}
	place := root.Named("placement")
	streams := root.Named("agent")
	for len(st.agents) < sc.Agents {
		st.agents = append(st.agents, new(core.Agent))
	}
	agents := st.agents[:sc.Agents]
	kind, team, left := sc.Kind, sc.Team, 0
	for i, a := range agents {
		if len(sc.Team) > 0 {
			for left == 0 {
				kind, left, team = team[0].Kind, team[0].Count, team[1:]
			}
			left--
		}
		err := a.Reset(core.Config{
			ID:            i,
			Start:         NodeID(place.Intn(w.N())),
			Kind:          kind,
			NetworkSize:   w.N(),
			Stigmergy:     sc.Stigmergy,
			ShareTopology: sc.Cooperate,
			VisitCapacity: sc.VisitCapacity,
			Epsilon:       sc.Epsilon,
			Stream:        streams.Child(uint64(i)),
		})
		if err != nil {
			return nil, fmt.Errorf("mapping: %w", err)
		}
	}
	return agents, nil
}

// Aggregate summarises a batch of runs of one parameter setting.
type Aggregate struct {
	// Runs is the number of runs attempted, Completed how many finished.
	Runs, Completed int
	// FinishTimes holds the finishing step of each completed run.
	FinishTimes []int
	// Finish summarises FinishTimes.
	Finish stats.Summary
	// AvgCurve is the pointwise mean of the per-run team-average curves.
	AvgCurve []float64
	// AvgMinCurve is the pointwise mean of the per-run slowest-agent
	// curves.
	AvgMinCurve []float64
	// Overhead sums all runs' agent overhead.
	Overhead core.Overhead
	// Stranded sums all runs' stranded-agent respawns (fault injection).
	Stranded int
}

// RunMany executes runs independent runs, drawing run i's placement from
// the i-th seed of a SplitMix64 stream rooted at baseSeed
// (rng.DeriveSeed). worldFor supplies the world for each run: return the
// same static world every time (sequential only), or generate a fresh one
// for dynamic mapping.
//
// With Scenario.RunWorkers > 1 the runs execute on a bounded worker pool
// (see internal/parallel). Each run draws its seed from its index alone
// and writes into its own result slot, and the reduction below walks the
// slots in run order, so the aggregate is bit-identical to the sequential
// path at any worker count. Parallel replication requires worldFor to
// return a fresh world per run — even static worlds carry mutable state
// (step counter, metrics hook) — and RunMany fails loudly when it sees
// the same *World twice. A Tracer forces sequential execution: the sink
// is shared across runs and must see them in order.
func RunMany(worldFor func(run int) (*network.World, error), sc Scenario, runs int, baseSeed uint64) (Aggregate, error) {
	if runs <= 0 {
		return Aggregate{}, fmt.Errorf("mapping: runs must be positive")
	}
	workers := sc.RunWorkers
	if sc.Tracer != nil {
		workers = 1
	}
	results, err := parallel.Replicate(workers, runs, baseSeed, worldFor, func(w *network.World, seed uint64) (Result, error) {
		return Run(w, sc, seed)
	})
	if err != nil {
		return Aggregate{}, err
	}
	agg := Aggregate{Runs: runs}
	curves := make([][]float64, 0, runs)
	minCurves := make([][]float64, 0, runs)
	for r := 0; r < runs; r++ {
		res := results[r]
		if res.Finished {
			agg.Completed++
			agg.FinishTimes = append(agg.FinishTimes, res.FinishStep)
		}
		curves = append(curves, res.Curve)
		minCurves = append(minCurves, res.MinCurve)
		agg.Overhead.Add(res.Overhead)
		agg.Stranded += res.Stranded
	}
	agg.Finish = stats.Summarize(stats.Ints(agg.FinishTimes))
	agg.AvgCurve = stats.AverageSeries(curves)
	agg.AvgMinCurve = stats.AverageSeries(minCurves)
	return agg, nil
}

// RunManyCached is RunMany over a record-once, replay-many world source.
// The first run to need a world records a Trajectory from one freshly
// built live world — sync.Once inside the source, so exactly one
// recording happens at any RunWorkers — and every run (including the
// first) replays it through a replay world's Step. Replay is
// bit-identical to live stepping, so the aggregate matches
// RunMany(fresh-world-per-run, ...) exactly; it just skips the mobility
// RNG, disc scans, and grid maintenance on every run after the recording.
// Each run gets its own replay cursor over the shared immutable
// trajectory, so the source is safe for parallel replication. With a
// single run there is nothing to amortize and recording would double the
// world work, so it falls back to plain RunMany.
func RunManyCached(build func() (*network.World, error), sc Scenario, runs int, baseSeed uint64) (Aggregate, error) {
	if runs <= 1 {
		return RunMany(func(int) (*network.World, error) { return build() }, sc, runs, baseSeed)
	}
	d := sc.withDefaults()
	src := network.NewTrajectorySource(d.MaxSteps, 0, d.Faults, build)
	return RunMany(src.WorldFor, sc, runs, baseSeed)
}

// Accuracy compares an agent's reconstructed map against the world's
// current topology and returns the fraction of nodes whose known
// out-neighbour list exactly matches reality — on a degrading network,
// "perfect knowledge" is a moving target. No harness or experiment calls
// it yet; the package tests pin its semantics.
func Accuracy(a *core.Agent, w *network.World) float64 {
	n := w.N()
	if n == 0 {
		return 1
	}
	match := 0
	// Walk only the known set, straight off the knowledge bitmask: 64
	// nodes per word instead of a per-node Knows probe.
	for wi, mw := range a.Topo.KnownMask() {
		for mw != 0 {
			u := NodeID(wi<<6 + bits.TrailingZeros64(mw))
			mw &= mw - 1
			if slices.Equal(a.Topo.Neighbors(u), w.Neighbors(u)) {
				match++
			}
		}
	}
	return float64(match) / float64(n)
}

// respawnStranded teleports every agent standing on a dead node to a
// uniformly random alive node, drawn from the run's dedicated fault
// stream over the ascending alive-node list, and returns how many agents
// it moved. Knowledge is kept — the map is software state. With nothing
// alive to land on, agents stay put (a dead node has no out-edges, so
// they idle until the world recovers).
func respawnStranded(w *network.World, agents []*core.Agent, frng *rng.Stream, tr trace.Tracer, step int) int {
	var aliveNodes []NodeID
	moved := 0
	for _, a := range agents {
		if w.Alive(a.At) {
			continue
		}
		if aliveNodes == nil {
			for u := 0; u < w.N(); u++ {
				if w.Alive(NodeID(u)) {
					aliveNodes = append(aliveNodes, NodeID(u))
				}
			}
		}
		if len(aliveNodes) == 0 {
			return moved
		}
		a.At = aliveNodes[frng.Intn(len(aliveNodes))]
		moved++
	}
	if moved > 0 && tr != nil {
		tr.Emit(trace.Event{
			Step: step, Kind: trace.KindFault,
			Value: float64(moved), Extra: "stranded-respawn",
		})
	}
	return moved
}
