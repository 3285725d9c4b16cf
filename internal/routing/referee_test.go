package routing

import "repro/internal/network"

// This file holds the scratch measures: each per-step metric recomputed
// from the world and the tables by full traversals, with no state carried
// between steps. They are the referee of every Meter equivalence test and
// CI gate in this package; the production measurement is the Meter
// (incremental.go). Tests outside this package reach them through
// export_test.go.

// Reaches reports whether forwarding from u along the tables' best entries
// arrives at any gateway over the current topology within maxWalk hops.
// This is the honest validity check: every hop must exist right now, and
// loops or empty tables fail the packet.
func Reaches(w *network.World, ts *Tables, u NodeID, maxWalk int, visited []bool) bool {
	for i := range visited {
		visited[i] = false
	}
	cur := u
	for hop := 0; hop <= maxWalk; hop++ {
		if w.IsGateway(cur) {
			return true
		}
		if visited[cur] {
			return false // forwarding loop
		}
		visited[cur] = true
		e, ok := ts.Best(cur)
		if !ok {
			return false
		}
		if !w.Topology().HasEdgeSorted(cur, e.NextHop) {
			return false // link gone
		}
		cur = e.NextHop
	}
	return false
}

// ReachSet returns, for every node, whether some chain of routing-table
// entries whose links all exist right now leads to a gateway. A node may
// switch target gateway mid-path (any entry counts — "a valid route to at
// least one gateway"), which matches nodes retrying their table entries.
// One reverse BFS from the gateway set makes this O(N + entries).
func ReachSet(w *network.World, ts *Tables) []bool {
	return new(Scratch).ReachSet(w, ts)
}

// Scratch carries the reusable buffers of the per-step connectivity
// metrics: the table-induced reverse adjacency in CSR form, the BFS seen
// set, and the BFS queue (drained by head index, so the backing array is
// reused instead of re-sliced away). One Scratch serves a whole run; the
// zero value is ready. Results returned by its methods alias the scratch
// and are valid until the next call.
type Scratch struct {
	revOff []int32  // n+1 CSR offsets into revDst
	revCur []int32  // per-node fill cursors
	revDst []NodeID // flat reverse edges
	seen   []bool
	queue  []NodeID
}

// ReachSet is the scratch-buffered form of the package-level ReachSet:
// identical results, zero steady-state allocations.
func (s *Scratch) ReachSet(w *network.World, ts *Tables) []bool {
	n := w.N()
	topo := w.Topology()
	if cap(s.revOff) < n+1 {
		s.revOff = make([]int32, n+1)
		s.revCur = make([]int32, n+1)
		s.seen = make([]bool, n)
		s.queue = make([]NodeID, 0, n)
	}
	s.revOff = s.revOff[:n+1]
	s.revCur = s.revCur[:n+1]
	s.seen = s.seen[:n]
	for i := range s.revOff {
		s.revOff[i] = 0
	}
	// Reverse adjacency over live table entries: an edge v←u for every
	// entry at u whose next hop v is currently a real link. Built in CSR
	// form with a counting pass so the flat buffer is reused across steps.
	// World topologies keep canonically sorted out-lists on both stepping
	// paths, so the liveness probe can binary-search.
	for u := 0; u < n; u++ {
		for _, e := range ts.rows[u] {
			if topo.HasEdgeSorted(NodeID(u), e.NextHop) {
				s.revOff[e.NextHop+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		s.revOff[v+1] += s.revOff[v]
	}
	total := int(s.revOff[n])
	if cap(s.revDst) < total {
		s.revDst = make([]NodeID, total)
	}
	s.revDst = s.revDst[:total]
	copy(s.revCur, s.revOff)
	for u := 0; u < n; u++ {
		for _, e := range ts.rows[u] {
			if topo.HasEdgeSorted(NodeID(u), e.NextHop) {
				s.revDst[s.revCur[e.NextHop]] = NodeID(u)
				s.revCur[e.NextHop]++
			}
		}
	}
	for i := range s.seen {
		s.seen[i] = false
	}
	queue := s.queue[:0]
	for _, g := range w.Gateways() {
		s.seen[g] = true
		queue = append(queue, g)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range s.revDst[s.revOff[v]:s.revOff[v+1]] {
			if !s.seen[u] {
				s.seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	s.queue = queue
	return s.seen
}

// Connectivity is the scratch-buffered form of the package-level
// Connectivity.
func (s *Scratch) Connectivity(w *network.World, ts *Tables) float64 {
	reach := s.ReachSet(w, ts)
	reached, total := 0, 0
	for u := 0; u < w.N(); u++ {
		if w.IsGateway(NodeID(u)) || !w.Alive(NodeID(u)) {
			continue
		}
		total++
		if reach[u] {
			reached++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(reached) / float64(total)
}

// LocalConnectivity returns the fraction of non-gateway nodes holding at
// least one route entry whose next hop is currently a live neighbour.
// This is the per-node view a deployed node actually has of its own
// connectivity (it can verify its next hop, not the whole path), and it
// rewards exactly what the agents are tasked with: covering every node
// with fresh table updates.
func LocalConnectivity(w *network.World, ts *Tables) float64 {
	topo := w.Topology()
	ok, total := 0, 0
	for u := 0; u < w.N(); u++ {
		if w.IsGateway(NodeID(u)) || !w.Alive(NodeID(u)) {
			continue
		}
		total++
		for _, e := range ts.rows[u] {
			if topo.HasEdgeSorted(NodeID(u), e.NextHop) {
				ok++
				break
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// Staleness returns the mean route age at the current step: for every
// alive non-gateway node holding at least one entry, the age in steps of
// its freshest entry. Nodes with empty tables do not dilute the mean —
// they are a coverage problem (connectivity), not a freshness one. Returns
// 0 when no node holds a route.
func Staleness(w *network.World, ts *Tables, step int) float64 {
	sum, cnt := 0, 0
	for u := 0; u < w.N(); u++ {
		if w.IsGateway(NodeID(u)) || !w.Alive(NodeID(u)) {
			continue
		}
		freshest := -1
		for _, e := range ts.rows[u] {
			if e.Updated > freshest {
				freshest = e.Updated
			}
		}
		if freshest >= 0 {
			sum += step - freshest
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// Connectivity returns the fraction of non-gateway nodes that currently
// reach a gateway through the tables (see ReachSet).
func Connectivity(w *network.World, ts *Tables) float64 {
	return new(Scratch).Connectivity(w, ts)
}
