// Package routing implements the paper's second scenario: mobile agents
// maintain the routing tables of a dynamic ad hoc network so that every
// node keeps a multi-hop route to one of a few stationary gateways. Nodes
// run no protocol of their own — agents wandering the network deposit
// routes learned from their bounded trail back to the last gateway they
// crossed.
//
// Each simulated step an agent (1) decides where to move next, (2) meets
// co-located agents (optionally adopting the best gateway route and, for
// oldest-node agents, merging visit histories), (3) moves, learning the
// edge it travels, and (4) updates the routing table of the node it now
// occupies. The headline metric is connectivity as route liveness: the
// fraction of alive non-gateway nodes holding an entry whose next hop is
// currently a live link, averaged over the post-convergence window
// (Result.Connectivity). The stricter end-to-end reading — the node's
// forwarding chain actually reaches a gateway over the current topology —
// is reported alongside it (Result.EndToEnd). A Meter measures both, and
// the ideal bound, incrementally every step.
package routing

import (
	"fmt"
	"math"
	"sync"

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

// Scenario configures one routing experiment.
type Scenario struct {
	// Agents is the population size.
	Agents int
	// Kind is PolicyRandom or PolicyOldestNode.
	Kind core.PolicyKind
	// Communicate enables the meeting exchange: everyone adopts the best
	// gateway route; oldest-node agents additionally merge histories.
	Communicate bool
	// Stigmergy enables footprints (the paper's future work).
	Stigmergy bool
	// HistorySize bounds both the visit memory and the gateway trail —
	// the paper's single "history size" knob (default 32).
	HistorySize int
	// Steps is the run length (default 300, as in the paper).
	Steps int
	// MeasureFrom is the start of the averaging window (default 150).
	MeasureFrom int
	// Workers is not read by any code.
	//
	// Deprecated: ignored; results never depended on it.
	Workers int
	// RunWorkers is the number of independent runs RunMany may execute
	// concurrently (0/1 = sequential). Replication is embarrassingly
	// parallel, so aggregates are bit-identical at any value; extra
	// goroutines are claimed from the shared parallel budget. When a
	// Tracer or Observer is attached, RunMany forces sequential execution
	// so the shared sink observes runs in order.
	RunWorkers int
	// ShardWorkers is not read by any code.
	//
	// Deprecated: ignored; results never depended on it.
	ShardWorkers int
	// Faults, if set, is a fault schedule attached to the world before the
	// run (see internal/faults): node churn, gateway failure, partitions,
	// and radio degradation fire at fixed world steps. The schedule is
	// immutable and may be shared across the runs of a RunMany batch. When
	// a fault epoch advances, the harness ages out routes through dead next
	// hops and routes to out-of-service gateways, and applies
	// StrandedPolicy to agents caught on dead nodes.
	Faults *faults.Schedule
	// StrandedPolicy selects what happens to an agent standing on a node
	// that dies: StrandedRespawn (default) teleports it to a random alive
	// node with a cleared trail; StrandedKill removes it for the rest of
	// the run.
	StrandedPolicy StrandedPolicy
	// Observer, if set, is called once per step after deposits and
	// measurement, before the world moves — the hook the packet-level
	// traffic harness uses to forward packets against live tables. It also
	// receives the step's Measurement and reached, the per-node reach view:
	// reached(u) reports whether u's table chains reach a gateway over the
	// current topology (EndToEnd is the share of eligible nodes for which
	// it is true; in-service gateways read true). The
	// *Tables and reached read the run's recycled state; observers must
	// not retain them past the call.
	Observer func(step int, w *network.World, tables *Tables, mm Measurement, reached func(NodeID) bool)
	// Tracer, if set, receives structured events (moves, meetings,
	// deposits, per-step connectivity). Events are emitted in a fixed
	// order, so traces are reproducible. A Tracer that also implements
	// trace.WorldSink (the binary LogWriter does) additionally receives
	// snapshot anchors every AnchorEvery steps and per-step world deltas,
	// making the log replayable offline.
	Tracer trace.Tracer
	// AnchorEvery is the snapshot-anchor cadence for WorldSink tracers
	// (<= 0 uses network.DefaultAnchorEvery). Ignored for plain tracers.
	AnchorEvery int
	// Metrics, if set, receives live instrumentation: per-step phase
	// timers, domain counters (moves, meetings by size, deposits,
	// adoptions, evictions), and connectivity gauges. Instruments are
	// updated outside every RNG consumption path, so attaching a registry
	// cannot change seeded results. nil disables with near-zero overhead.
	Metrics *metrics.Registry
}

const (
	// tableCapacity bounds per-node routing tables at the paper's "simple
	// routing table": each node holds the single freshest route agents
	// have offered it.
	tableCapacity = 1
	// stigPerNode sizes the footprint board: three marks per node (marks
	// never expire; displacement is the only forgetting).
	stigPerNode = 3
	// recoveryTol is the reconvergence tolerance for the post-fault
	// recovery statistics: an event recovers when connectivity climbs back
	// to within recoveryTol of its pre-fault baseline.
	recoveryTol = 0.02
)

// StrandedPolicy selects the fate of agents standing on a node when a
// fault kills it.
type StrandedPolicy uint8

const (
	// StrandedRespawn teleports a stranded agent to a uniformly random
	// alive node (drawn from the run's dedicated fault stream) and clears
	// its trail — the recorded walk no longer connects to the new position.
	StrandedRespawn StrandedPolicy = iota
	// StrandedKill removes a stranded agent from the run permanently; its
	// accumulated overhead still counts.
	StrandedKill
)

func (sc Scenario) withDefaults() Scenario {
	if sc.Agents <= 0 {
		sc.Agents = 1
	}
	if sc.Kind == 0 {
		sc.Kind = core.PolicyOldestNode
	}
	if sc.HistorySize <= 0 {
		sc.HistorySize = 32
	}
	if sc.Steps <= 0 {
		sc.Steps = 300
	}
	if sc.MeasureFrom <= 0 || sc.MeasureFrom >= sc.Steps {
		sc.MeasureFrom = sc.Steps / 2
	}
	return sc
}

// Result reports one routing run.
type Result struct {
	// Connectivity is the per-step fraction of non-gateway nodes holding
	// a route entry whose next hop is currently alive (Measurement.Local)
	// — the headline metric, matching what the paper's agents are tasked
	// with maintaining.
	Connectivity []float64
	// EndToEnd is the stricter per-step fraction whose table chains
	// actually reach a gateway over the current topology
	// (Measurement.EndToEnd). Always ≤ Ideal.
	EndToEnd []float64
	// Ideal is the per-step physical upper bound (omniscient routing).
	Ideal []float64
	// Staleness is the per-step mean route age: for every alive non-gateway
	// node holding at least one entry, the age in steps of its freshest
	// entry, averaged over those nodes (0 when no node holds a route).
	Staleness []float64
	// Mean and Std summarise Connectivity over the measurement window.
	Mean, Std float64
	// MeanEndToEnd summarises EndToEnd over the same window.
	MeanEndToEnd float64
	// MeanStaleness summarises Staleness over the same window.
	MeanStaleness float64
	// Recovery measures the Connectivity series' response to each fault
	// event — time-to-reconvergence and connectivity floor. Populated only
	// when Scenario.Faults is set.
	Recovery stats.RecoveryStats
	// RecoveryEndToEnd is the same measurement over the stricter EndToEnd
	// series, where gateway failures and partitions actually sever paths —
	// the honest reconvergence time of the route fabric. Populated only
	// when Scenario.Faults is set.
	RecoveryEndToEnd stats.RecoveryStats
	// Stranded counts agents caught on dying nodes (respawned or killed,
	// per StrandedPolicy).
	Stranded int
	// Overhead aggregates all agents' cost counters.
	Overhead core.Overhead
}

// runMetrics bundles the routing harness's instrument handles. The zero
// value (no registry) makes every operation a no-op; enabled additionally
// gates the per-step O(agents) overhead-delta sweep.
type runMetrics struct {
	enabled bool

	runs  metrics.Counter
	steps metrics.Counter

	decide  metrics.Timer
	meet    metrics.Timer
	move    metrics.Timer
	deposit metrics.Timer
	measure metrics.Timer

	moves     metrics.Counter
	meetings  metrics.Counter
	meetSize  metrics.Histogram
	deposits  metrics.Counter
	adoptions metrics.Counter
	evictions metrics.Counter
	marks     metrics.Counter
	stranded  metrics.Counter
	purged    metrics.Counter

	connLocal metrics.Gauge
	connE2E   metrics.Gauge
	connIdeal metrics.Gauge
	staleness metrics.Gauge

	measResyncs metrics.Counter

	prevOverhead core.Overhead
	prevEvict    int
}

func newRunMetrics(r *metrics.Registry) runMetrics {
	if r == nil {
		return runMetrics{}
	}
	return runMetrics{
		enabled:   true,
		runs:      r.Counter("routing_runs_total"),
		steps:     r.Counter("routing_steps_total"),
		decide:    r.Timer("routing_phase_decide_seconds"),
		meet:      r.Timer("routing_phase_meet_seconds"),
		move:      r.Timer("routing_phase_move_seconds"),
		deposit:   r.Timer("routing_phase_deposit_seconds"),
		measure:   r.Timer("routing_phase_measure_seconds"),
		moves:     r.Counter("routing_moves_total"),
		meetings:  r.Counter("routing_meetings_total"),
		meetSize:  r.Histogram("routing_meeting_size", nil),
		deposits:  r.Counter("routing_deposits_total"),
		adoptions: r.Counter("routing_route_adoptions_total"),
		evictions: r.Counter("routing_route_evictions_total"),
		marks:     r.Counter("routing_marks_total"),
		stranded:  r.Counter("faults_stranded_agents_total"),
		purged:    r.Counter("faults_routes_purged_total"),
		connLocal: r.Gauge("routing_connectivity"),
		connE2E:   r.Gauge("routing_connectivity_end_to_end"),
		connIdeal: r.Gauge("routing_connectivity_ideal"),
		staleness: r.Gauge("routing_route_staleness"),

		measResyncs: r.Counter("routing_measure_resyncs_total"),
	}
}

// syncCounts publishes the per-step growth of the agents' overhead
// counters and the tables' eviction count. Runs after deposits, so it
// observes a settled step.
func (m *runMetrics) syncCounts(agents []*core.Agent, tables *Tables) {
	if !m.enabled {
		return
	}
	var cur core.Overhead
	for _, a := range agents {
		cur.Add(a.Overhead)
	}
	m.moves.Add(uint64(cur.Moves - m.prevOverhead.Moves))
	m.deposits.Add(uint64(cur.RouteDeposits - m.prevOverhead.RouteDeposits))
	m.adoptions.Add(uint64(cur.TrailAdoptions - m.prevOverhead.TrailAdoptions))
	m.marks.Add(uint64(cur.MarksLeft - m.prevOverhead.MarksLeft))
	m.prevOverhead = cur
	ev := tables.Evictions()
	m.evictions.Add(uint64(ev - m.prevEvict))
	m.prevEvict = ev
}

// runState carries the per-run buffers a replication worker reuses from
// run to run: the agents, the decided-move slice, the meeting grouper, the
// node tables, the measurement meter and the footprint board. Pooling it
// keeps the zero-allocation property of a single run intact across a
// whole RunMany batch, sequential or parallel — each worker drains and
// refills the pool instead of reallocating per run. The zero value is
// ready; reset prepares it for a world of n nodes.
type runState struct {
	agents  []*core.Agent // reset in place by placeAgents
	next    []NodeID
	grouper *core.Grouper
	meet    core.MeetScratch // every meeting of the run
	tables  Tables
	meter   Meter
	nbrs    core.NeighborMarks // deposit phase: the current node's out-list
	board   stigmergy.Board    // reset by each stigmergic run
}

// statePool recycles runState across runs and executor workers.
var statePool = sync.Pool{New: func() any { return new(runState) }}

// reset sizes st for a run over n nodes with the given agent count and
// table capacity, leaving every buffer indistinguishable from freshly
// allocated storage.
func (st *runState) reset(n, agents, capacity int) {
	if cap(st.next) < agents {
		st.next = make([]NodeID, agents)
	}
	st.next = st.next[:agents]
	if st.grouper == nil {
		st.grouper = core.NewGrouper(n)
	} else {
		st.grouper.Reset(n)
	}
	st.tables.reset(n, capacity)
	st.nbrs.Reset(n)
}

// Run executes one routing run on w. The world is consumed (stepped); use
// a fresh world per run. Agent placement is drawn from seed. When a
// processor is free, a live dynamic world is stepped on a helper
// goroutine ahead of the agents, which replay its recording, and the
// measurement follows one step behind on the same goroutine; other worlds
// get a measure-only helper (see startHelper, pipeline.go). The result is
// identical, and when Run returns, w stands where stepping it inline would
// have left it.
func Run(w *network.World, sc Scenario, seed uint64) (Result, error) {
	st := statePool.Get().(*runState)
	res, err := run(w, sc, seed, st)
	statePool.Put(st)
	return res, err
}

// run is Run on caller-provided scratch state.
func run(w *network.World, sc Scenario, seed uint64, st *runState) (Result, error) {
	sc = sc.withDefaults()
	if len(w.Gateways()) == 0 {
		return Result{}, fmt.Errorf("routing: world has no gateways")
	}
	switch sc.Kind {
	case core.PolicyRandom, core.PolicyOldestNode:
	default:
		return Result{}, fmt.Errorf("routing: unsupported policy %v", sc.Kind)
	}
	if sc.Faults != nil {
		w.SetFaults(sc.Faults)
	}
	root := rng.New(seed).Named("routing")
	agents, err := placeAgents(w, sc, root, st)
	if err != nil {
		return Result{}, err
	}
	// The series are written by step index, inline or by the helper.
	res := Result{
		Connectivity: make([]float64, sc.Steps),
		EndToEnd:     make([]float64, sc.Steps),
		Ideal:        make([]float64, sc.Steps),
		Staleness:    make([]float64, sc.Steps),
	}
	out := series{res.Connectivity, res.EndToEnd, res.Ideal, res.Staleness}
	meter := &st.meter
	// From here on the run cannot fail, so the world may run ahead and the
	// measurement may trail.
	h, replay, err := startHelper(w, sc, meter, out)
	if err != nil {
		return Result{}, err
	}
	var pipe *measurePipe
	if h != nil {
		defer h.stop()
		pipe = &h.pipe
		if replay != nil {
			w = replay
		}
	}
	st.reset(w.N(), len(agents), tableCapacity)
	tables := &st.tables
	var board *stigmergy.Board
	if sc.Stigmergy {
		board = &st.board
		board.Reset(w.N(), stigPerNode)
	}
	next := st.next
	grouper := st.grouper
	nbrs := &st.nbrs
	// The meter measures incrementally, bit-identical to the scratch
	// referee (pinned by the differential tests), fed by the world's edge
	// stream and the tables' dirty list.
	meter.Reset(w, tables)
	// An Observer run measures inline (startHelper), so the meter is
	// current whenever the Observer reads its reach view.
	var reached func(NodeID) bool
	if sc.Observer != nil {
		reached = meter.Reached
	}
	m := newRunMetrics(sc.Metrics)
	w.Instrument(sc.Metrics)
	m.runs.Inc()

	// alive is the agent population still in play; StrandedKill shrinks it.
	// The original agents slice is kept intact for the final overhead sweep.
	alive := agents
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

	for step := 0; step < sc.Steps; step++ {
		m.steps.Inc()
		rec.BeforeStep(step)
		// Fault reaction: events fired inside the previous w.Step() advance
		// the epoch; react before agents decide.
		if sc.Faults != nil {
			if ep := w.FaultEpoch(); ep != lastEpoch {
				lastEpoch = ep
				alive = reactToFaults(w, sc, step, tables, alive, faultRng, &res, &m)
			}
		}
		// Phase 1: decide (+ mark), in agent order (board is nil without
		// stigmergy).
		sp := m.decide.Start()
		for _, a := range alive {
			next[a.ID] = a.Decide(board, step, w.Neighbors(a.At))
		}
		sp.Stop()
		// Phase 2: meetings at the pre-move node.
		sp = m.meet.Start()
		if sc.Communicate && len(alive) > 1 {
			groups := grouper.Meetings(alive)
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
				st.meet.ExchangeRoutes(g)
			}
		}
		sp.Stop()
		if sc.Tracer != nil {
			for _, a := range alive {
				if next[a.ID] != a.At {
					sc.Tracer.Emit(trace.Event{
						Step: step, Kind: trace.KindMove,
						Agent: int32(a.ID), Node: int32(a.At), To: int32(next[a.ID]),
					})
				}
			}
		}
		// Phase 3: move and record; Phase 4: deposit at the new node.
		sp = m.move.Start()
		for _, a := range alive {
			a.MoveTo(next[a.ID], w.IsGateway(next[a.ID]))
			a.RecordHere(step)
		}
		sp.Stop()
		// Deposits touch shared tables, in agent order. Table updates are
		// freshest-wins, so order only breaks exact ties; fixing the order
		// makes runs reproducible.
		sp = m.deposit.Start()
		for _, a := range alive {
			node := a.At
			agent := a
			nbrs.Stamp(w.Neighbors(node))
			a.DepositRoute(nbrs, func(gw, hop NodeID, hops int) bool {
				changed := tables.Update(node, Entry{
					Gateway: gw, NextHop: hop, Hops: hops, Updated: step,
				})
				if changed && sc.Tracer != nil {
					sc.Tracer.Emit(trace.Event{
						Step: step, Kind: trace.KindDeposit,
						Agent: int32(agent.ID), Node: int32(node), To: int32(gw),
						Value: float64(hops),
					})
				}
				return changed
			})
		}
		sp.Stop()
		m.syncCounts(agents, tables)
		// Measure, then let the world move.
		if pipe != nil {
			// The helper measures this step while the agents decide the next.
			pipe.capture(step)
		} else {
			mm := measureInline(meter, step, out, &m, sc.Tracer)
			if sc.Observer != nil {
				sc.Observer(step, w, tables, mm, reached)
			}
		}
		w.Step()
		rec.AfterWorldStep()
	}

	if pipe != nil {
		pipe.join()
	}
	m.measResyncs.Add(uint64(meter.Resyncs()))
	res.Mean = stats.WindowMean(res.Connectivity, sc.MeasureFrom, sc.Steps)
	res.Std = stats.WindowStd(res.Connectivity, sc.MeasureFrom, sc.Steps)
	res.MeanEndToEnd = stats.WindowMean(res.EndToEnd, sc.MeasureFrom, sc.Steps)
	res.MeanStaleness = stats.WindowMean(res.Staleness, sc.MeasureFrom, sc.Steps)
	if sc.Faults != nil {
		// An event scheduled at world step s fires inside the s-th Step()
		// call, after that step's measurement — its first observable effect
		// is series index s+1, with series[s] the pre-fault baseline.
		fsteps := sc.Faults.Steps()
		shifted := make([]int, len(fsteps))
		for i, s := range fsteps {
			shifted[i] = s + 1
		}
		res.Recovery = stats.Recovery(res.Connectivity, shifted, recoveryTol)
		res.RecoveryEndToEnd = stats.Recovery(res.EndToEnd, shifted, recoveryTol)
	}
	for _, a := range agents {
		res.Overhead.Add(a.Overhead)
	}
	return res, nil
}

// measureInline measures a step on the run goroutine: timed, published to
// the gauges and traced in step order. It returns the step's measurement.
func measureInline(meter *Meter, step int, out series, m *runMetrics, tr trace.Tracer) Measurement {
	sp := m.measure.Start()
	mm := meter.Measure(step)
	out.set(step, mm)
	sp.Stop()
	m.connLocal.Set(mm.Local)
	m.connE2E.Set(mm.EndToEnd)
	m.connIdeal.Set(mm.Ideal)
	m.staleness.Set(mm.Staleness)
	if tr != nil {
		tr.Emit(trace.Event{
			Step: step, Kind: trace.KindMeasure,
			Value: mm.Local, Extra: "connectivity",
		})
		tr.Emit(trace.Event{
			Step: step, Kind: trace.KindMeasure,
			Value: mm.EndToEnd, Extra: "end-to-end",
		})
		tr.Emit(trace.Event{
			Step: step, Kind: trace.KindMeasure,
			Value: mm.Ideal, Extra: "ideal",
		})
	}
	return mm
}

// reactToFaults is the harness's response to a fault epoch advance: routes
// through dead next hops and routes to out-of-service gateways are aged
// out of every table, and agents caught on dead nodes are respawned (to a
// uniformly random alive node, trail cleared) or killed per
// Scenario.StrandedPolicy. Respawn targets are drawn from the run's
// dedicated fault stream over the ascending alive-node list, so the
// reaction is a pure function of the run seed and the schedule. Returns
// the surviving agent slice; the caller's original slice is never mutated.
func reactToFaults(w *network.World, sc Scenario, step int, tables *Tables, alive []*core.Agent, frng *rng.Stream, res *Result, m *runMetrics) []*core.Agent {
	purged := 0
	for u := 0; u < w.N(); u++ {
		purged += tables.DropIf(NodeID(u), func(e Entry) bool {
			return !w.Alive(e.NextHop) || !w.IsGateway(e.Gateway)
		})
	}
	m.purged.Add(uint64(purged))
	stranded := 0
	if sc.StrandedPolicy == StrandedKill {
		lost := 0
		for _, a := range alive {
			if !w.Alive(a.At) {
				lost++
			}
		}
		if lost > 0 {
			stranded = lost
			kept := make([]*core.Agent, 0, len(alive)-lost)
			for _, a := range alive {
				if w.Alive(a.At) {
					kept = append(kept, a)
				}
			}
			alive = kept
		}
	} else {
		var aliveNodes []NodeID
		for _, a := range alive {
			if w.Alive(a.At) {
				continue
			}
			stranded++
			if aliveNodes == nil {
				for u := 0; u < w.N(); u++ {
					if w.Alive(NodeID(u)) {
						aliveNodes = append(aliveNodes, NodeID(u))
					}
				}
			}
			if len(aliveNodes) == 0 {
				continue // nothing left to respawn onto; leave it in place
			}
			target := aliveNodes[frng.Intn(len(aliveNodes))]
			a.At = target
			if w.IsGateway(target) {
				a.Trail.ResetAt(target)
			} else {
				a.Trail.Clear()
			}
		}
	}
	res.Stranded += stranded
	m.stranded.Add(uint64(stranded))
	if sc.Tracer != nil {
		evs := w.LastFaultEvents()
		extra := ""
		if len(evs) > 0 {
			extra = evs[0].Kind.String()
		}
		sc.Tracer.Emit(trace.Event{
			Step: step, Kind: trace.KindFault,
			Value: float64(len(evs)), Extra: extra,
		})
	}
	return alive
}

// placeAgents injects the run's agents, recycling the previous run's
// agents from st in place (core.Agent.Reset makes each indistinguishable
// from a fresh one).
func placeAgents(w *network.World, sc Scenario, root *rng.Stream, st *runState) ([]*core.Agent, error) {
	place := root.Named("placement")
	streams := root.Named("agent")
	for len(st.agents) < sc.Agents {
		st.agents = append(st.agents, new(core.Agent))
	}
	agents := st.agents[:sc.Agents]
	for i, a := range agents {
		err := a.Reset(core.Config{
			ID:            i,
			Start:         NodeID(place.Intn(w.N())),
			Kind:          sc.Kind,
			NetworkSize:   w.N(),
			Stigmergy:     sc.Stigmergy,
			ShareRoutes:   sc.Communicate,
			VisitCapacity: sc.HistorySize,
			TrailCapacity: sc.HistorySize,
			Stream:        streams.Child(uint64(i)),
		})
		if err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
		// The paper's communicating oldest-node agents merge histories in
		// meetings — the mechanism behind Fig 11's collapse.
		if sc.Communicate && sc.Kind == core.PolicyOldestNode {
			a.EnableVisitSharing(true)
		}
		// An agent injected on a gateway starts with an anchored trail.
		if w.IsGateway(a.At) {
			a.Trail.ResetAt(a.At)
		}
	}
	return agents, nil
}

// Aggregate summarises a batch of runs of one parameter setting.
type Aggregate struct {
	Runs int
	// Means holds each run's window-mean connectivity.
	Means []float64
	// Mean summarises Means across runs.
	Mean stats.Summary
	// EndToEnd summarises the runs' window-mean end-to-end connectivity.
	EndToEnd stats.Summary
	// Stability is the average within-run standard deviation over the
	// window (lower = steadier connectivity).
	Stability float64
	// AvgSeries is the pointwise mean connectivity curve.
	AvgSeries []float64
	// AvgIdeal is the pointwise mean physical upper bound.
	AvgIdeal []float64
	// MeanStaleness averages the runs' window-mean route staleness.
	MeanStaleness float64
	// Reconv summarises each run's mean time-to-reconvergence over its
	// recovered fault events (runs with no recovered event are excluded).
	// Meaningful only when the scenario carried a fault schedule.
	Reconv stats.Summary
	// Floor summarises each run's connectivity floor across its fault
	// degradation windows.
	Floor stats.Summary
	// ReconvE2E and FloorE2E are the same summaries over the end-to-end
	// series, where severed paths register fully.
	ReconvE2E stats.Summary
	FloorE2E  stats.Summary
	// Recovered and Censored total the fault events across runs that did
	// and did not reconverge before the run ended.
	Recovered, Censored int
	// Stranded totals agents caught on dying nodes across runs.
	Stranded int
	// Overhead sums all runs' agent overhead.
	Overhead core.Overhead
}

// RunMany executes runs independent runs. worldFor must return a FRESH
// world per call; to follow the paper (same node placement and movements
// in every run) regenerate from the same world seed each time.
//
// With Scenario.RunWorkers > 1 the runs execute on a bounded worker pool
// (see internal/parallel). Each run draws its seed from its index alone
// and writes into its own result slot, and the reduction below walks the
// slots in run order, so the aggregate is bit-identical to the sequential
// path at any worker count. A Tracer or Observer forces sequential
// execution: those sinks are shared across runs and must see them in
// order.
func RunMany(worldFor func(run int) (*network.World, error), sc Scenario, runs int, baseSeed uint64) (Aggregate, error) {
	if runs <= 0 {
		return Aggregate{}, fmt.Errorf("routing: runs must be positive")
	}
	workers := sc.RunWorkers
	if sc.Tracer != nil || sc.Observer != nil {
		workers = 1
	}
	// Static worlds tempt callers into returning one shared *World from
	// worldFor; Run still mutates it (step counter, metrics hook, edge
	// stream), so that is a data race under run-level parallelism.
	// Replicate catches it loudly rather than corrupting results.
	results, err := parallel.Replicate(workers, runs, baseSeed, worldFor, func(w *network.World, seed uint64) (Result, error) {
		return Run(w, sc, seed)
	})
	if err != nil {
		return Aggregate{}, err
	}
	return aggregate(results), nil
}

// aggregate reduces per-run results, in run order, to a batch summary.
func aggregate(results []Result) Aggregate {
	runs := len(results)
	agg := Aggregate{Runs: runs}
	series := make([][]float64, 0, runs)
	ideal := make([][]float64, 0, runs)
	stds := make([]float64, 0, runs)
	e2e := make([]float64, 0, runs)
	var stal, reconv, floors, reconvE2E, floorsE2E []float64
	for _, res := range results {
		if !math.IsNaN(res.Mean) {
			agg.Means = append(agg.Means, res.Mean)
		}
		if !math.IsNaN(res.MeanEndToEnd) {
			e2e = append(e2e, res.MeanEndToEnd)
		}
		if !math.IsNaN(res.MeanStaleness) {
			stal = append(stal, res.MeanStaleness)
		}
		if !math.IsNaN(res.Recovery.MeanSteps) {
			reconv = append(reconv, res.Recovery.MeanSteps)
		}
		if !math.IsNaN(res.Recovery.Floor) {
			floors = append(floors, res.Recovery.Floor)
		}
		if !math.IsNaN(res.RecoveryEndToEnd.MeanSteps) {
			reconvE2E = append(reconvE2E, res.RecoveryEndToEnd.MeanSteps)
		}
		if !math.IsNaN(res.RecoveryEndToEnd.Floor) {
			floorsE2E = append(floorsE2E, res.RecoveryEndToEnd.Floor)
		}
		agg.Recovered += res.Recovery.Recovered
		agg.Censored += res.Recovery.Censored
		agg.Stranded += res.Stranded
		stds = append(stds, res.Std)
		series = append(series, res.Connectivity)
		ideal = append(ideal, res.Ideal)
		agg.Overhead.Add(res.Overhead)
	}
	agg.Mean = stats.Summarize(agg.Means)
	agg.EndToEnd = stats.Summarize(e2e)
	agg.Stability = stats.Mean(stds)
	agg.AvgSeries = stats.AverageSeries(series)
	agg.AvgIdeal = stats.AverageSeries(ideal)
	agg.MeanStaleness = stats.Mean(stal)
	agg.Reconv = stats.Summarize(reconv)
	agg.Floor = stats.Summarize(floors)
	agg.ReconvE2E = stats.Summarize(reconvE2E)
	agg.FloorE2E = stats.Summarize(floorsE2E)
	return agg
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
	src := network.NewTrajectorySource(d.Steps, 0, d.Faults, build)
	return RunMany(src.WorldFor, sc, runs, baseSeed)
}
