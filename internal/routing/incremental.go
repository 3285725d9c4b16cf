package routing

import (
	"repro/internal/graph"
	"repro/internal/network"
)

// This file implements the incremental measurement engine: a Meter
// maintains the harness's four per-step metrics — LocalConnectivity,
// end-to-end Connectivity, ConnectivityToGateways, and Staleness — in
// O(changes) per step instead of the three full graph traversals the
// scratch path pays. It is fed by two change streams: the world's
// per-step topology deltas (network.TopoDeltas) and the routing tables'
// dirty list (Update and DropIf, the tables' only mutators, mark every
// node they change). End-to-end reachability lives in a graph.DynReach
// witness forest over the "route graph" — the directed edges
// (u → entry.NextHop) whose links are currently up — and the ideal bound
// in a second forest over the raw topology. Both forests ride the same
// topology deltas, in one pass, under one sync decision. Local
// connectivity and staleness reduce to counters patched on the same
// events.
//
// Every stepping path reports its exact edge edits, full rebuilds
// included. Steps the streams cannot cover — fault epochs (alive/gateway
// masks moved) or a missed step — degrade to one full recompute, which
// costs exactly what the scratch path pays every step. Every value the
// Meter emits is bit-identical to the scratch functions' across all of
// it, pinned by the equivalence, property, and fuzz tests in this package.

// Measurement is one step's metric values, as emitted by Meter.Measure.
type Measurement struct {
	// Local is LocalConnectivity: the fraction of eligible nodes holding
	// at least one entry whose next hop is currently a live link.
	Local float64
	// EndToEnd is Connectivity: the fraction of eligible nodes whose
	// table chains reach a gateway over the current topology.
	EndToEnd float64
	// Ideal is ConnectivityToGateways: the omniscient-routing bound.
	Ideal float64
	// Staleness is the mean age of eligible nodes' freshest entries.
	Staleness float64
}

// Meter measures routing metrics incrementally. One Meter serves one run
// at a time; Reset rebinds it to a new world/tables pair (pooled harness
// state reuses meters across runs). The zero value is ready after Reset.
type Meter struct {
	w  *network.World
	ts *Tables

	deltas *network.TopoDeltas
	dr     graph.DynReach // end-to-end reach over the route graph
	orc    graph.ReachOracle
	ideal  graph.DynReach // ideal reach over the raw topology
	idOrc  graph.ReachOracle
	// topoRev[v] lists v's topology in-neighbours: the graph's own reverse
	// CSR is invalidated wholesale on any mutation, so the ideal forest
	// keeps this mirror, repaired from the same delta stream.
	topoRev [][]NodeID

	// Route-graph mirrors, consistent with the tables as of the last
	// drain: hops[u] lists u's entry next hops (entry order), revEnt[v]
	// the multiset of nodes holding an entry with next hop v.
	hops   [][]NodeID
	revEnt [][]NodeID

	// Per-node aggregates patched on writes: fresh[u] is the freshest
	// Updated at u (-1 when empty); localOK[u] whether u holds an entry
	// with a live next hop; elig[u] the service-masked eligibility
	// (non-gateway ∧ alive), constant between fault epochs.
	fresh   []int
	localOK []bool
	elig    []bool

	eligible  int // count of elig
	localCnt  int // count of elig ∧ localOK
	withEntry int // count of elig ∧ fresh >= 0
	sumFresh  int // Σ fresh over the withEntry set

	lastEpoch int
	lastStep  int
	synced    bool
	resyncs   int
}

// NewMeter builds a meter over w's topology deltas and ts's dirty list.
func NewMeter(w *network.World, ts *Tables) *Meter {
	m := &Meter{}
	m.Reset(w, ts)
	return m
}

// Reset rebinds the meter to a world/tables pair and forces a full
// recompute at the next Measure.
func (m *Meter) Reset(w *network.World, ts *Tables) {
	m.w = w
	m.ts = ts
	m.deltas = w.WatchTopology()
	m.synced = false
	m.resyncs = 0
	if m.orc.LiveOut == nil {
		// Oracle closures are bound once per meter — they read m's current
		// fields, so Reset retargets them without allocating in any
		// per-step path.
		m.orc = graph.ReachOracle{
			LiveOut: func(u NodeID, dst []NodeID) []NodeID {
				topo := m.w.Topology()
				for _, e := range m.ts.rows[u] {
					if topo.HasEdgeSorted(u, e.NextHop) {
						dst = append(dst, e.NextHop)
					}
				}
				return dst
			},
			LiveIn: func(v NodeID, dst []NodeID) []NodeID {
				topo := m.w.Topology()
				for _, u := range m.revEnt[v] {
					if topo.HasEdgeSorted(u, v) {
						dst = append(dst, u)
					}
				}
				return dst
			},
			HasLive: func(u, v NodeID) bool {
				if !m.w.Topology().HasEdgeSorted(u, v) {
					return false
				}
				for _, h := range m.hops[u] {
					if h == v {
						return true
					}
				}
				return false
			},
			Countable: func(u NodeID) bool {
				return !m.w.IsGateway(u) && m.w.Alive(u)
			},
		}
		m.idOrc = graph.ReachOracle{
			LiveOut: func(u NodeID, dst []NodeID) []NodeID {
				return m.w.Topology().Out(u)
			},
			LiveIn: func(v NodeID, dst []NodeID) []NodeID {
				return m.topoRev[v]
			},
			HasLive: func(u, v NodeID) bool {
				return m.w.Topology().HasEdgeSorted(u, v)
			},
			Countable: func(u NodeID) bool { return m.w.NeedsGateway(u) },
		}
	}
}

// Resyncs returns how many full recomputes the meter has performed since
// Reset (the first Measure included).
func (m *Meter) Resyncs() int { return m.resyncs }

// Measure brings the meter up to date with the world and tables and
// returns the step's metrics. step is the harness step used for entry
// ages (the same value the scratch Staleness takes).
func (m *Meter) Measure(step int) Measurement {
	w := m.w
	d := m.deltas
	// The incremental path is valid only when every change since the last
	// Measure is enumerable: the tables' dirty list always is; the
	// topology's stream is when the fault masks did not move and at most
	// one world step elapsed.
	incrOK := m.synced && w.FaultEpoch() == m.lastEpoch &&
		(w.StepCount() == m.lastStep ||
			(d.Step == w.StepCount() && d.Step == m.lastStep+1))
	if !incrOK {
		m.resync()
	} else {
		if w.StepCount() != m.lastStep {
			m.applyTopoDeltas(d)
			m.lastStep = d.Step
		}
		m.drainWrites()
		m.dr.Flush()
		m.ideal.Flush()
	}
	var out Measurement
	// The ideal bound's degenerate cases, in ConnectivityToGateways' order.
	switch {
	case len(w.Gateways()) == 0, w.AliveCount() == 0:
		out.Ideal = 0
	case m.ideal.CountableTotal() == 0:
		out.Ideal = 1
	default:
		out.Ideal = float64(m.ideal.Count()) / float64(m.ideal.CountableTotal())
	}
	if m.eligible == 0 {
		out.Local, out.EndToEnd = 1, 1
	} else {
		out.Local = float64(m.localCnt) / float64(m.eligible)
		out.EndToEnd = float64(m.dr.Count()) / float64(m.eligible)
	}
	if m.withEntry > 0 {
		out.Staleness = float64(step*m.withEntry-m.sumFresh) / float64(m.withEntry)
	}
	return out
}

// resync rebuilds every mirror and aggregate from the current world and
// tables — the full-recompute fallback, one scratch-path step's worth of
// work. Pending dirty marks are absorbed wholesale.
func (m *Meter) resync() {
	w, ts := m.w, m.ts
	n := w.N()
	topo := w.Topology()
	m.lastEpoch = w.FaultEpoch()
	m.lastStep = w.StepCount()
	m.synced = true
	m.resyncs++
	ts.clearDirty()
	if cap(m.hops) < n {
		m.hops = make([][]NodeID, n)
		m.revEnt = make([][]NodeID, n)
		m.fresh = make([]int, n)
		m.localOK = make([]bool, n)
		m.elig = make([]bool, n)
	}
	if cap(m.topoRev) < n {
		m.topoRev = make([][]NodeID, n)
	}
	m.topoRev = m.topoRev[:n]
	m.hops = m.hops[:n]
	m.revEnt = m.revEnt[:n]
	m.fresh = m.fresh[:n]
	m.localOK = m.localOK[:n]
	m.elig = m.elig[:n]
	for v := range m.revEnt {
		m.revEnt[v] = m.revEnt[v][:0]
		m.topoRev[v] = m.topoRev[v][:0]
	}
	m.eligible, m.localCnt, m.withEntry, m.sumFresh = 0, 0, 0, 0
	for u := 0; u < n; u++ {
		id := NodeID(u)
		for _, v := range topo.Out(id) {
			m.topoRev[v] = appendSlack(m.topoRev[v], id)
		}
		hu := m.hops[u][:0]
		fresh := -1
		lok := false
		for _, e := range ts.rows[u] {
			hu = append(hu, e.NextHop)
			m.revEnt[e.NextHop] = appendSlack(m.revEnt[e.NextHop], id)
			if e.Updated > fresh {
				fresh = e.Updated
			}
			if !lok && topo.HasEdgeSorted(id, e.NextHop) {
				lok = true
			}
		}
		m.hops[u] = hu
		m.fresh[u] = fresh
		m.localOK[u] = lok
		el := !w.IsGateway(id) && w.Alive(id)
		m.elig[u] = el
		if el {
			m.eligible++
			if lok {
				m.localCnt++
			}
			if fresh >= 0 {
				m.withEntry++
				m.sumFresh += fresh
			}
		}
	}
	m.dr.Reset(n, m.orc)
	m.dr.Recompute(w.Gateways())
	m.ideal.Reset(n, m.idOrc)
	m.ideal.Recompute(w.Gateways())
}

// applyTopoDeltas feeds one step's edge churn into both reach forests and
// the local counter. Every churned edge repairs the topology mirror and
// queues its tail in the ideal forest; in the route graph only endpoints
// that hold an entry through the edge can be affected. The hops mirror may
// lag this step's still-undrained table writes; any discrepancy is covered
// because those nodes are on the dirty list drainWrites processes next
// (over-reports here are harmless, under-reports impossible).
func (m *Meter) applyTopoDeltas(d *network.TopoDeltas) {
	for i := range d.RemU {
		u, v := d.RemU[i], d.RemV[i]
		m.topoRev[v] = removeOne(m.topoRev[v], u)
		m.ideal.Invalidate(u)
		if m.hasHop(u, v) {
			m.dr.Invalidate(u)
			m.refreshLocal(u)
		}
	}
	for i := range d.AddU {
		u, v := d.AddU[i], d.AddV[i]
		m.topoRev[v] = appendSlack(m.topoRev[v], u)
		m.ideal.Candidate(u)
		if m.hasHop(u, v) {
			m.dr.Candidate(u)
			m.refreshLocal(u)
		}
	}
}

// drainWrites absorbs the tables' dirty list: for each written node, diff
// the hops mirror against the current entries (fixing revEnt), refresh the
// freshness and local aggregates, and queue the node for reach repair.
func (m *Meter) drainWrites() {
	ts := m.ts
	for _, u := range ts.dirty {
		m.refreshNode(u)
	}
	ts.clearDirty()
}

// refreshNode re-derives node u's mirrors and aggregate contributions from
// its current table.
func (m *Meter) refreshNode(u NodeID) {
	ts := m.ts
	// Retire the old mirror: drop one revEnt occurrence per old hop.
	for _, h := range m.hops[u] {
		m.revEnt[h] = removeOne(m.revEnt[h], u)
	}
	hu := m.hops[u][:0]
	fresh := -1
	for _, e := range ts.rows[u] {
		hu = append(hu, e.NextHop)
		m.revEnt[e.NextHop] = appendSlack(m.revEnt[e.NextHop], u)
		if e.Updated > fresh {
			fresh = e.Updated
		}
	}
	m.hops[u] = hu
	if m.elig[u] {
		old := m.fresh[u]
		if old >= 0 {
			m.withEntry--
			m.sumFresh -= old
		}
		if fresh >= 0 {
			m.withEntry++
			m.sumFresh += fresh
		}
	}
	m.fresh[u] = fresh
	m.refreshLocal(u)
	// The write may have removed the entry witnessing u's reach, or added
	// one that establishes it; both checks are cheap no-ops when not.
	m.dr.Invalidate(u)
	m.dr.Candidate(u)
}

// refreshLocal recomputes localOK[u] from the current entries and
// topology, patching the counter. Idempotent, so duplicate refreshes from
// overlapping events are harmless.
func (m *Meter) refreshLocal(u NodeID) {
	topo := m.w.Topology()
	lok := false
	for _, e := range m.ts.rows[u] {
		if topo.HasEdgeSorted(u, e.NextHop) {
			lok = true
			break
		}
	}
	if lok == m.localOK[u] {
		return
	}
	m.localOK[u] = lok
	if m.elig[u] {
		if lok {
			m.localCnt++
		} else {
			m.localCnt--
		}
	}
}

// hasHop reports whether the hops mirror lists v as one of u's entry next
// hops.
func (m *Meter) hasHop(u, v NodeID) bool {
	for _, h := range m.hops[u] {
		if h == v {
			return true
		}
	}
	return false
}

// appendSlack appends with headroom (rows grow to 2·len+8): mirror rows
// track per-node in-degrees (entry or topology) whose high-water marks
// drift upward for hundreds of steps as movers wander through dense
// regions; slack keeps the drift inside existing capacity so steady-state
// measures stay allocation-free.
func appendSlack(row []NodeID, u NodeID) []NodeID {
	if len(row) == cap(row) {
		grown := make([]NodeID, len(row), 2*len(row)+8)
		copy(grown, row)
		row = grown
	}
	return append(row, u)
}

// removeOne drops one occurrence of u from a mirror row (order is not
// kept). A row that never held u — a spurious stream entry — comes back
// untouched, matching the graph's own no-op.
func removeOne(row []NodeID, u NodeID) []NodeID {
	for i, x := range row {
		if x == u {
			row[i] = row[len(row)-1]
			return row[:len(row)-1]
		}
	}
	return row
}
