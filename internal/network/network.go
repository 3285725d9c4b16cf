// Package network models the wireless ad hoc network the agents live on:
// node positions, radios, mobility, the gateway set, and the directed
// topology induced by radio ranges. A World owns all of it and exposes a
// per-step evolution (move nodes, drain batteries, recompute links).
//
// Link semantics follow the paper: there is a directed link u→v iff v lies
// within u's *current* radio range. Heterogeneous ranges therefore produce
// asymmetric links, and battery decay breaks links over time.
package network

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/radio"
)

// NodeID aliases graph.NodeID for convenience.
type NodeID = graph.NodeID

// Config assembles a World. Positions, Radios and Movers must have equal
// lengths; Gateways lists node IDs that act as stationary gateways.
type Config struct {
	Arena     geom.Rect
	Positions []geom.Point
	Radios    []radio.Radio
	Movers    []mobility.Mover
	Gateways  []NodeID
}

// World is the simulated wireless network.
type World struct {
	arena     geom.Rect
	pos       []geom.Point
	radios    []radio.Radio
	fleet     *mobility.Fleet
	gateways  []NodeID
	isGateway []bool

	grid     *geom.Grid
	topo     *graph.Directed
	step     int
	dynamic  bool    // false ⇒ topology never changes after construction
	maxRange float64 // max base radio range; grid cell side and query bound

	// Per-step rebuilds alternate between two graph buffers so the
	// previous step's topology stays intact for exactly one step (the
	// documented lifetime of Topology()) while its storage is recycled
	// the step after. reach backs ConnectivityToGateways.
	topoBuf [2]*graph.Directed
	topoIdx int
	reach   graph.ReachScratch
	nbrBuf  []int32 // scratch for grid queries

	// incr holds the incremental topology engine's per-world state (nil
	// for static worlds); fullRebuild forces the per-step full recompute
	// path instead, for equivalence tests and benchmarks. Both paths
	// produce bit-identical topologies.
	incr        *incrState
	fullRebuild bool

	// flt, when non-nil, is the fault-injection runtime (see faults.go):
	// alive mask, gateway service mask, partition cut, and the schedule
	// driving them.
	flt *faultState

	// traj, when non-nil, makes this a replay world (see trajectory.go):
	// every Step applies the next recorded edge churn and fault state
	// instead of running mobility, decay, faults, or topology
	// maintenance. Its pos and radios lag behind until syncGeometry
	// catches them up, so every read of either goes through it.
	traj *trajDecoder

	// deltas is the per-step edge-change stream (see deltas.go): every
	// stepping path reports its exact edge edits into it.
	deltas TopoDeltas

	m worldMetrics
}

// worldMetrics holds the World's instrument handles. All handles are
// nil-safe no-ops until Instrument attaches a registry.
type worldMetrics struct {
	steps        metrics.Counter
	mobility     metrics.Timer
	decay        metrics.Timer
	rebuild      metrics.Timer
	linksAdded   metrics.Counter
	linksRemoved metrics.Counter
	edges        metrics.Gauge

	faultsInjected  metrics.Counter
	faultsRecovered metrics.Counter
	faultsNodesDown metrics.Gauge
}

// Instrument registers the World's per-step phase timers (mobility, radio
// decay, topology rebuild) and link-churn counters on r. A nil registry
// detaches nothing and costs nothing; instruments never feed back into the
// simulation, so seeded results are unchanged.
func (w *World) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	w.m = worldMetrics{
		steps:        r.Counter("world_steps_total"),
		mobility:     r.Timer("world_phase_mobility_seconds"),
		decay:        r.Timer("world_phase_radio_decay_seconds"),
		rebuild:      r.Timer("world_phase_topology_rebuild_seconds"),
		linksAdded:   r.Counter("world_links_added_total"),
		linksRemoved: r.Counter("world_links_removed_total"),
		edges:        r.Gauge("world_edges"),

		faultsInjected:  r.Counter("faults_injected_total"),
		faultsRecovered: r.Counter("faults_recovered_total"),
		faultsNodesDown: r.Gauge("faults_nodes_down"),
	}
	w.m.edges.Set(float64(w.topo.M()))
	if w.flt != nil {
		w.m.faultsNodesDown.Set(float64(w.N() - w.flt.aliveCount))
	}
}

// NewWorld validates cfg and builds the initial topology.
func NewWorld(cfg Config) (*World, error) {
	n := len(cfg.Positions)
	if n == 0 {
		return nil, fmt.Errorf("network: empty world")
	}
	if len(cfg.Radios) != n || len(cfg.Movers) != n {
		return nil, fmt.Errorf("network: mismatched lengths: %d positions, %d radios, %d movers",
			n, len(cfg.Radios), len(cfg.Movers))
	}
	w := &World{
		arena:     cfg.Arena,
		pos:       append([]geom.Point(nil), cfg.Positions...),
		radios:    append([]radio.Radio(nil), cfg.Radios...),
		fleet:     mobility.NewFleet(cfg.Movers),
		isGateway: make([]bool, n),
	}
	for _, g := range cfg.Gateways {
		if int(g) < 0 || int(g) >= n {
			return nil, fmt.Errorf("network: gateway %d out of range [0,%d)", g, n)
		}
		if !w.isGateway[g] {
			w.isGateway[g] = true
			w.gateways = append(w.gateways, g)
		}
	}
	maxRange := 0.0
	for i := range w.radios {
		if r := w.radios[i].BaseRange(); r > maxRange {
			maxRange = r
		}
		if w.radios[i].Decays() {
			w.dynamic = true
		}
	}
	for _, m := range cfg.Movers {
		if _, static := m.(mobility.Static); !static {
			w.dynamic = true
		}
	}
	if maxRange <= 0 {
		return nil, fmt.Errorf("network: all radios have zero range")
	}
	w.maxRange = maxRange
	w.grid = geom.NewGrid(cfg.Arena, n, maxRange)
	if w.dynamic {
		// Incremental updates re-bucket nodes one at a time; pre-grown
		// buckets keep that free of steady-state growth reallocations.
		w.grid.ReserveBuckets(n)
	}
	w.rebuildTopology()
	if w.dynamic {
		w.initIncremental(cfg.Movers)
	}
	return w, nil
}

// N returns the number of nodes.
func (w *World) N() int { return len(w.pos) }

// StepCount returns how many times Step has been called.
func (w *World) StepCount() int { return w.step }

// Dynamic reports whether the topology can change over time.
func (w *World) Dynamic() bool { return w.dynamic }

// Pos returns node u's current position.
func (w *World) Pos(u NodeID) geom.Point {
	w.syncGeometry()
	return w.pos[u]
}

// Positions returns a copy of all node positions.
func (w *World) Positions() []geom.Point {
	w.syncGeometry()
	return append([]geom.Point(nil), w.pos...)
}

// Radio returns a copy of node u's radio state.
func (w *World) Radio(u NodeID) radio.Radio {
	w.syncGeometry()
	return w.radios[u]
}

// Gateways returns the gateway node IDs currently in service: under fault
// injection, dead or failed gateways are excluded. Callers must not modify
// the returned slice.
func (w *World) Gateways() []NodeID {
	if w.flt != nil {
		return w.flt.activeGW
	}
	return w.gateways
}

// IsGateway reports whether u is a gateway currently in service (dead and
// failed gateways do not count as route targets).
func (w *World) IsGateway(u NodeID) bool {
	if w.flt != nil && (w.flt.dead[u] || w.flt.gwDown[u]) {
		return false
	}
	return w.isGateway[u]
}

// Topology returns the current directed topology. The returned graph is
// owned by the World and valid until the next Step; callers must not
// modify it.
func (w *World) Topology() *graph.Directed { return w.topo }

// Neighbors returns the current out-neighbours of u (nodes u can transmit
// to). Callers must not modify the returned slice.
func (w *World) Neighbors(u NodeID) []NodeID { return w.topo.Out(u) }

// Step advances the world one time step: nodes move, batteries drain, and
// the topology is updated. Static worlds skip the update entirely; dynamic
// worlds maintain the link graph incrementally (cost proportional to the
// nodes that can move plus the links that actually churned) unless
// SetFullRebuild forced the per-step full recompute. Both paths produce
// bit-identical topologies — canonical sorted out-lists — pinned by the
// equivalence and fuzz tests in this package. Whatever the path, the step's
// exact edge edits land in the WatchTopology stream, and the link-churn
// instruments are read off it.
func (w *World) Step() {
	if c := w.traj; c != nil {
		if err := c.await(); err != nil {
			panic(fmt.Sprintf("network: %v", err))
		}
	}
	w.step++
	w.m.steps.Inc()
	w.deltas.reset(w.step)
	w.advance()
	w.m.linksAdded.Add(uint64(len(w.deltas.AddU)))
	w.m.linksRemoved.Add(uint64(len(w.deltas.RemU)))
	w.m.edges.Set(float64(w.topo.M()))
}

// advance runs one step's state change through the stepping path that
// applies, each of which reports its edge edits into w.deltas.
func (w *World) advance() {
	if w.traj != nil {
		// Replay worlds (Trajectory.World) step from the recorded delta
		// stream — no mobility RNG, no disc scans, no grid maintenance.
		w.stepFromTrajectory()
		return
	}
	if f := w.flt; f != nil {
		// Fault steps — and every step while a partition is active on a
		// dynamic world — run the mask-aware full rebuild; the incremental
		// engine resynchronises afterwards through its stale flag.
		if evs := f.sched.At(w.step); len(evs) > 0 {
			w.applyFaults(evs)
			w.stepFullRebuild()
			return
		}
		if f.partActive && w.dynamic {
			w.stepFullRebuild()
			return
		}
	}
	if !w.dynamic {
		return
	}
	if w.fullRebuild || w.incr == nil {
		w.stepFullRebuild()
		return
	}
	w.stepIncremental()
}

// SetFullRebuild selects between the incremental topology engine (the
// default for dynamic worlds) and the full per-step recompute. The two
// paths yield identical topologies, so this is a performance knob only —
// benchmarks and equivalence tests flip it. Safe to toggle at any step
// boundary: the incremental engine re-derives its per-step state from the
// world, and its decay cursors tolerate edges already removed by full
// rebuilds that ran in between.
func (w *World) SetFullRebuild(on bool) { w.fullRebuild = on }

// stepFullRebuild is the pre-incremental Step body: move, decay, rebuild
// the whole topology from the grid.
func (w *World) stepFullRebuild() {
	sp := w.m.mobility.Start()
	if w.flt == nil {
		w.fleet.Step(w.pos)
	} else {
		// Dead nodes freeze: their movers are not stepped, so their RNG
		// streams pause — exactly as the incremental path skips them — and
		// resume from the same state on revival.
		for i := range w.pos {
			if !w.flt.dead[i] {
				w.pos[i] = w.fleet.StepOne(i, w.pos[i])
			}
		}
	}
	sp.Stop()
	sp = w.m.decay.Start()
	for i := range w.radios {
		w.radios[i].Step()
	}
	sp.Stop()
	sp = w.m.rebuild.Start()
	old := w.topo
	w.rebuildTopology()
	sp.Stop()
	if w.incr != nil {
		// Positions and topology changed behind the incremental engine's
		// back; its records, candidate lists and certificates must be
		// rebuilt before the next incremental step (decay cursors tolerate
		// staleness on their own).
		w.incr.stale = true
	}
	w.deltas.diff(old, w.topo)
}

// rebuildTopology recomputes the directed link graph using the spatial
// grid, writing into the topology buffer not currently published so the
// rebuild reuses storage instead of allocating a fresh graph per step.
// Grid cells visit each node exactly once and exclude the centre node, so
// the neighbour lists are duplicate- and self-loop-free as SetOut requires.
func (w *World) rebuildTopology() {
	n := w.N()
	w.topoIdx ^= 1
	g := w.topoBuf[w.topoIdx]
	if g == nil {
		g = graph.New(n)
		w.topoBuf[w.topoIdx] = g
	}
	g.Reset(n)
	f := w.flt
	if f == nil {
		w.grid.Rebuild(w.pos)
		for u := 0; u < n; u++ {
			r := w.radios[u].Range()
			if r <= 0 {
				continue
			}
			w.nbrBuf = w.grid.Within(w.pos[u], r, u, w.nbrBuf[:0])
			g.SetOut(NodeID(u), w.nbrBuf)
		}
		w.topo = g
		return
	}
	// Fault-aware rebuild: dead nodes are omitted from the grid (queries
	// cannot see them, so they receive no links) and skipped as sources (so
	// they emit none); an active partition drops every neighbour on the far
	// side of the cut. A fully dead world degenerates to an empty grid and
	// an edgeless graph — no scan runs at all.
	w.grid.RebuildMasked(w.pos, f.dead)
	for u := 0; u < n; u++ {
		if f.dead[u] {
			continue
		}
		r := w.radios[u].Range()
		if r <= 0 {
			continue
		}
		w.nbrBuf = w.grid.Within(w.pos[u], r, u, w.nbrBuf[:0])
		if f.partActive {
			side := w.pos[u].X >= f.partX
			kept := w.nbrBuf[:0]
			for _, v := range w.nbrBuf {
				if (w.pos[v].X >= f.partX) == side {
					kept = append(kept, v)
				}
			}
			w.nbrBuf = kept
		}
		g.SetOut(NodeID(u), w.nbrBuf)
	}
	w.topo = g
}

// ConnectivityToGateways returns the fraction of non-gateway nodes that
// can reach at least one gateway over the *current* topology. This is the
// idealised (omniscient-routing) upper bound on the paper's connectivity
// metric; the routing scenario measures the same fraction over
// agent-maintained tables instead.
func (w *World) ConnectivityToGateways() float64 {
	// Degenerate worlds short-circuit to 0: no in-service gateways (none
	// configured, or all dead/failed) or no alive nodes at all.
	gws := w.Gateways()
	if len(gws) == 0 {
		return 0
	}
	f := w.flt
	if f != nil && f.aliveCount == 0 {
		return 0
	}
	reach := w.topo.CanReachSetScratch(gws, &w.reach)
	nonGateway, connected := 0, 0
	for u := 0; u < w.N(); u++ {
		if !w.NeedsGateway(NodeID(u)) {
			continue
		}
		nonGateway++
		if reach[u] {
			connected++
		}
	}
	if nonGateway == 0 {
		return 1
	}
	return float64(connected) / float64(nonGateway)
}

// NeedsGateway reports whether u counts in ConnectivityToGateways'
// denominator: alive and not a configured gateway. A gateway out of
// service stays excluded — it is never a route target for anyone else and
// never counts itself. Changes only when a fault epoch advances.
func (w *World) NeedsGateway(u NodeID) bool {
	return !w.isGateway[u] && w.Alive(u)
}
