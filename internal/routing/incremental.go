package routing

import (
	"repro/internal/graph"
	"repro/internal/network"
)

// This file implements the incremental measurement engine: a Meter
// maintains the harness's four per-step metrics — LocalConnectivity,
// end-to-end Connectivity, ConnectivityToGateways, and Staleness — in
// O(changes) per step instead of the three full graph traversals the
// scratch path pays. It is fed one change record per measured step
// (record.go), built from two change streams: the world's per-step
// topology deltas (network.TopoDeltas) and the routing tables' dirty list
// (Update and DropIf, the tables' only mutators, mark every node they
// change). The Meter reads nothing but the records: it keeps its own
// mirrors of the topology, the masks and the table next hops. End-to-end
// reachability lives in a graph.DynReach witness forest over the "route
// graph" — the directed edges (u → entry.NextHop) whose links are
// currently up — and the ideal bound in a second forest over the raw
// topology. Both forests ride the same edge pairs, in one pass. Local
// connectivity and staleness reduce to counters patched on the same
// events.
//
// Every stepping path reports its exact edge edits, full rebuilds
// included. Steps the streams cannot cover — fault epochs (alive/gateway
// masks moved) or a missed step — carry full state, and the Meter
// recomputes from it, which costs exactly what the scratch path pays
// every step. Every value the Meter emits is bit-identical to the scratch
// functions' across all of it, pinned by the equivalence, property, and
// fuzz tests in this package.

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

// Meter measures routing metrics incrementally. It consumes one change
// record per measured step (record.go) and reads nothing else: its
// topology, mask and table inputs are mirrors it patches from the
// records, so it can measure a step after the world has moved on and on
// another goroutine than the one that stepped it. One Meter serves one run
// at a time; Reset rebinds it to a new world/tables pair (pooled harness
// state reuses meters across runs). The zero value consumes records as it
// is; Measure, which captures them too, needs Reset first.
type Meter struct {
	// The inline path (Measure): src reads the world and tables, and view
	// is the record it fills with views into them.
	src  changeSource
	view changeRecord

	dr    graph.DynReach // end-to-end reach over the route graph
	orc   graph.ReachOracle
	ideal graph.DynReach // ideal reach over the raw topology
	idOrc graph.ReachOracle

	// Topology mirror, patched from the records' edge pairs: out[u] is u's
	// sorted out-list and topoRev[v] lists v's in-neighbours.
	out     [][]NodeID
	topoRev [][]NodeID

	// Route-graph mirrors, consistent with the tables as of the last
	// record: hops[u] lists u's entry next hops (entry order), revEnt[v]
	// the multiset of nodes holding an entry with next hop v.
	hops   [][]NodeID
	revEnt [][]NodeID

	// Per-node aggregates patched on writes: fresh[u] is the freshest
	// Updated at u (-1 when empty); localOK[u] whether u holds an entry
	// with a live next hop; elig[u] the service-masked eligibility
	// (non-gateway ∧ alive) and needs[u] the ideal bound's
	// (World.NeedsGateway), both constant between fault epochs.
	fresh   []int
	localOK []bool
	elig    []bool
	needs   []bool

	gateways   []NodeID // in-service gateways, as of the last full record
	aliveCount int

	eligible  int // count of elig
	localCnt  int // count of elig ∧ localOK
	withEntry int // count of elig ∧ fresh >= 0
	sumFresh  int // Σ fresh over the withEntry set

	resyncs int
}

// NewMeter builds a meter over w's topology deltas and ts's dirty list.
func NewMeter(w *network.World, ts *Tables) *Meter {
	m := &Meter{}
	m.Reset(w, ts)
	return m
}

// Reset rebinds the meter to a world/tables pair; the next record is a
// full one, so the next Measure recomputes everything.
func (m *Meter) Reset(w *network.World, ts *Tables) {
	m.src.reset(w, ts)
	m.resyncs = 0
}

// bindOracles binds the forests' oracle closures, once per meter: they
// read m's current fields, so no per-step path allocates them.
func (m *Meter) bindOracles() {
	m.orc = graph.ReachOracle{
		LiveOut: func(u NodeID, dst []NodeID) []NodeID {
			for _, h := range m.hops[u] {
				if m.linked(u, h) {
					dst = append(dst, h)
				}
			}
			return dst
		},
		LiveIn: func(v NodeID, dst []NodeID) []NodeID {
			for _, u := range m.revEnt[v] {
				if m.linked(u, v) {
					dst = append(dst, u)
				}
			}
			return dst
		},
		HasLive: func(u, v NodeID) bool {
			return m.linked(u, v) && m.hasHop(u, v)
		},
		Countable: func(u NodeID) bool { return m.elig[u] },
	}
	m.idOrc = graph.ReachOracle{
		LiveOut: func(u NodeID, dst []NodeID) []NodeID {
			return m.out[u]
		},
		LiveIn: func(v NodeID, dst []NodeID) []NodeID {
			return m.topoRev[v]
		},
		HasLive:   m.linked,
		Countable: func(u NodeID) bool { return m.needs[u] },
	}
}

// Resyncs returns how many full recomputes the meter has performed since
// Reset (the first Measure included).
func (m *Meter) Resyncs() int { return m.resyncs }

// Measure brings the meter up to date with the world and tables and
// returns the step's metrics. step is the harness step used for entry
// ages (the same value the scratch Staleness takes). It captures the
// step's change record as views into the world and tables, consumes it,
// and clears the tables' dirty list: no copy is made.
func (m *Meter) Measure(step int) Measurement {
	m.src.view(step, &m.view)
	out := m.consume(&m.view)
	m.src.ts.clearDirty()
	return out
}

// consume applies one change record to the mirrors and both forests and
// returns the step's metrics. A full record replaces every mirror; a
// delta record patches them.
func (m *Meter) consume(r *changeRecord) Measurement {
	if r.full {
		m.resync(r)
	} else {
		m.applyTopoDeltas(r)
		m.drainWrites(r)
		m.dr.Flush()
		m.ideal.Flush()
	}
	var out Measurement
	// The ideal bound's degenerate cases, in ConnectivityToGateways' order.
	switch {
	case len(m.gateways) == 0, m.aliveCount == 0:
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
		out.Staleness = float64(r.step*m.withEntry-m.sumFresh) / float64(m.withEntry)
	}
	return out
}

// resync rebuilds every mirror and aggregate from a full record — the
// full-recompute fallback, one scratch-path step's worth of work.
func (m *Meter) resync(r *changeRecord) {
	topo := r.topo
	n := topo.N()
	m.resyncs++
	if m.orc.LiveOut == nil {
		m.bindOracles()
	}
	if cap(m.hops) < n {
		m.hops = make([][]NodeID, n)
		m.revEnt = make([][]NodeID, n)
		m.fresh = make([]int, n)
		m.localOK = make([]bool, n)
		m.elig = make([]bool, n)
		m.needs = make([]bool, n)
	}
	if cap(m.topoRev) < n {
		m.topoRev = make([][]NodeID, n)
		m.out = make([][]NodeID, n)
	}
	m.out = m.out[:n]
	m.topoRev = m.topoRev[:n]
	m.hops = m.hops[:n]
	m.revEnt = m.revEnt[:n]
	m.fresh = m.fresh[:n]
	m.localOK = m.localOK[:n]
	m.elig = m.elig[:n]
	m.needs = m.needs[:n]
	for v := range m.revEnt {
		m.revEnt[v] = m.revEnt[v][:0]
		m.topoRev[v] = m.topoRev[v][:0]
	}
	m.gateways = append(m.gateways[:0], r.gateways...)
	m.aliveCount = r.aliveCount
	m.eligible, m.localCnt, m.withEntry, m.sumFresh = 0, 0, 0, 0
	for u := 0; u < n; u++ {
		id := NodeID(u)
		m.out[u] = copySlack(m.out[u], topo.Out(id))
		for _, v := range m.out[u] {
			m.topoRev[v] = appendSlack(m.topoRev[v], id)
		}
		hu := m.hops[u][:0]
		fresh := -1
		lok := false
		for _, e := range r.rows[u] {
			hu = append(hu, e.NextHop)
			m.revEnt[e.NextHop] = appendSlack(m.revEnt[e.NextHop], id)
			if e.Updated > fresh {
				fresh = e.Updated
			}
			if !lok && m.linked(id, e.NextHop) {
				lok = true
			}
		}
		m.hops[u] = hu
		m.fresh[u] = fresh
		m.localOK[u] = lok
		el := r.elig[u]
		m.elig[u] = el
		m.needs[u] = r.needs[u]
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
	m.dr.Recompute(m.gateways)
	m.ideal.Reset(n, m.idOrc)
	m.ideal.Recompute(m.gateways)
}

// applyTopoDeltas feeds one record's edge churn into the topology mirror,
// both reach forests and the local counter. The mirror is patched first,
// so every check below sees the step's whole topology. Every churned edge
// queues its tail in the ideal forest; in the route graph only endpoints
// that hold an entry through the edge can be affected. The hops mirror may
// lag the record's table writes; any discrepancy is covered because those
// nodes are on the record's written list, which drainWrites processes next
// (over-reports here are harmless, under-reports impossible).
func (m *Meter) applyTopoDeltas(r *changeRecord) {
	for i := range r.remU {
		u, v := r.remU[i], r.remV[i]
		m.out[u] = removeSorted(m.out[u], v)
		m.topoRev[v] = removeOne(m.topoRev[v], u)
	}
	for i := range r.addU {
		u, v := r.addU[i], r.addV[i]
		m.out[u] = insertSorted(m.out[u], v)
		m.topoRev[v] = appendSlack(m.topoRev[v], u)
	}
	for i := range r.remU {
		u, v := r.remU[i], r.remV[i]
		m.ideal.Invalidate(u)
		if m.hasHop(u, v) {
			m.dr.Invalidate(u)
			m.refreshLocal(u)
		}
	}
	for i := range r.addU {
		u, v := r.addU[i], r.addV[i]
		m.ideal.Candidate(u)
		if m.hasHop(u, v) {
			m.dr.Candidate(u)
			m.refreshLocal(u)
		}
	}
}

// drainWrites absorbs the record's written rows: for each written node,
// diff the hops mirror against its new entries (fixing revEnt), refresh
// the freshness and local aggregates, and queue the node for reach repair.
func (m *Meter) drainWrites(r *changeRecord) {
	for _, u := range r.written {
		m.refreshNode(u, r.rows[u])
	}
}

// refreshNode re-derives node u's mirrors and aggregate contributions from
// its new row.
func (m *Meter) refreshNode(u NodeID, row []Entry) {
	// Retire the old mirror: drop one revEnt occurrence per old hop.
	for _, h := range m.hops[u] {
		m.revEnt[h] = removeOne(m.revEnt[h], u)
	}
	hu := m.hops[u][:0]
	fresh := -1
	for _, e := range row {
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

// refreshLocal recomputes localOK[u] from the hops and topology mirrors,
// patching the counter. Idempotent, so duplicate refreshes from
// overlapping events are harmless.
func (m *Meter) refreshLocal(u NodeID) {
	lok := false
	for _, h := range m.hops[u] {
		if m.linked(u, h) {
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

// linked reports whether the topology mirror holds the edge u→v.
func (m *Meter) linked(u, v NodeID) bool {
	row := m.out[u]
	i := lowerBound(row, v)
	return i < len(row) && row[i] == v
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

// lowerBound returns the first index in the sorted row whose value is
// >= v.
func lowerBound(row []NodeID, v NodeID) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertSorted inserts v into the sorted row unless it is there already
// (growing with appendSlack's headroom).
func insertSorted(row []NodeID, v NodeID) []NodeID {
	i := lowerBound(row, v)
	if i < len(row) && row[i] == v {
		return row
	}
	row = appendSlack(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = v
	return row
}

// removeSorted removes v from the sorted row, keeping it sorted; a row
// without v comes back untouched.
func removeSorted(row []NodeID, v NodeID) []NodeID {
	i := lowerBound(row, v)
	if i == len(row) || row[i] != v {
		return row
	}
	copy(row[i:], row[i+1:])
	return row[:len(row)-1]
}

// copySlack overwrites row with src, growing it with appendSlack's
// headroom when it is too small.
func copySlack(row, src []NodeID) []NodeID {
	if cap(row) < len(src) {
		row = make([]NodeID, 0, 2*len(src)+8)
	}
	return append(row[:0], src...)
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
