// Package graph implements the directed-graph machinery the simulator is
// built on: adjacency storage, traversals, strong connectivity, and
// reachability toward gateway sets. Node IDs are dense ints in [0, N).
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node. IDs are dense: a graph over n nodes uses
// IDs 0..n-1.
type NodeID = int32

// Directed is a directed graph stored as out-adjacency lists. The zero
// value is an empty graph with no nodes; use New to size one.
//
// Two build paths exist. AddEdge grows per-node lists one edge at a time
// and suits generators. SetOut (after Reset) lays all adjacency out in one
// flat edge array, CSR style, so a graph that is rebuilt every simulation
// step reuses one backing allocation instead of reallocating per node.
type Directed struct {
	out   [][]NodeID // per-node views; SetOut aliases them into edges
	edges []NodeID   // flat backing storage for SetOut builds
	m     int        // edge count

	// Reverse adjacency in CSR form (inOff has n+1 offsets into inEdges),
	// built lazily by ensureIn and reused across Reset cycles.
	inOff   []int32
	inEdges []NodeID
	inOK    bool
}

// New returns a directed graph with n nodes and no edges.
func New(n int) *Directed {
	return &Directed{out: make([][]NodeID, n)}
}

// Reset clears g to n nodes and no edges, keeping the backing storage of
// previous builds so a per-step rebuild settles into zero allocations.
func (g *Directed) Reset(n int) {
	if cap(g.out) < n {
		g.out = make([][]NodeID, n)
	}
	g.out = g.out[:n]
	for i := range g.out {
		g.out[i] = nil
	}
	g.edges = g.edges[:0]
	g.m = 0
	g.inOK = false
}

// SetOut replaces u's out-neighbour list with a sorted copy of neighbors,
// stored in the graph's flat edge array. The caller guarantees neighbors
// holds no duplicates and not u itself (AddEdge enforces those; SetOut is
// the fast path for rebuilds that already know the list is clean).
func (g *Directed) SetOut(u NodeID, neighbors []NodeID) {
	g.m += len(neighbors) - len(g.out[u])
	start := len(g.edges)
	g.edges = append(g.edges, neighbors...)
	adj := g.edges[start:len(g.edges):len(g.edges)]
	slices.Sort(adj)
	g.out[u] = adj
	g.inOK = false
}

// InsertEdgeSorted inserts the edge u→v into u's sorted out-list, keeping
// it sorted — the incremental counterpart of SetOut, so a surgically
// updated graph stays in the same canonical ascending order as a full
// rebuild. It requires u's out-list to already be sorted (SetOut and
// previous surgeries guarantee that) and returns false if the edge was
// already present. Growing past a CSR-aliased list's capacity reallocates
// it into node-owned storage, after which inserts reuse that storage.
func (g *Directed) InsertEdgeSorted(u, v NodeID) bool {
	adj := g.out[u]
	i := lowerBound(adj, v)
	if i < len(adj) && adj[i] == v {
		return false
	}
	adj = append(adj, 0)
	copy(adj[i+1:], adj[i:])
	adj[i] = v
	g.out[u] = adj
	g.m++
	g.inOK = false
	return true
}

// RemoveEdgeSorted removes the edge u→v from u's sorted out-list, keeping
// it sorted, and returns whether the edge existed. Removal shifts within
// u's own storage, so CSR-aliased lists stay confined to their disjoint
// ranges of the flat edge array.
func (g *Directed) RemoveEdgeSorted(u, v NodeID) bool {
	adj := g.out[u]
	i := lowerBound(adj, v)
	if i == len(adj) || adj[i] != v {
		return false
	}
	copy(adj[i:], adj[i+1:])
	g.out[u] = adj[:len(adj)-1]
	g.m--
	g.inOK = false
	return true
}

// OwnRows migrates every CSR-aliased adjacency list into node-owned
// storage with spare capacity — half the row's current degree plus
// headroom slots — so InsertEdgeSorted calls after a SetOut build rarely
// reallocate. A surgically maintained graph calls this once after
// construction; rows then ratchet to their high-water capacity, and the
// proportional slack keeps record-breaking degrees (hence reallocations)
// rare even across many nodes and long runs.
func (g *Directed) OwnRows(headroom int) {
	if headroom < 0 {
		headroom = 0
	}
	for u, adj := range g.out {
		owned := make([]NodeID, len(adj), len(adj)+len(adj)/2+headroom)
		copy(owned, adj)
		g.out[u] = owned
	}
}

// N returns the number of nodes.
func (g *Directed) N() int { return len(g.out) }

// M returns the number of edges.
func (g *Directed) M() int { return g.m }

// AddEdge inserts the edge u→v. Duplicate edges and self-loops are
// rejected (returning false) so that edge counts stay meaningful.
func (g *Directed) AddEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	for _, w := range g.out[u] {
		if w == v {
			return false
		}
	}
	g.out[u] = append(g.out[u], v)
	g.m++
	g.inOK = false
	return true
}

// HasEdge reports whether the edge u→v exists.
func (g *Directed) HasEdge(u, v NodeID) bool {
	for _, w := range g.out[u] {
		if w == v {
			return true
		}
	}
	return false
}

// HasEdgeSorted reports whether the edge u→v exists by binary search,
// assuming u's out-list is sorted ascending — true for SetOut-built and
// surgically maintained graphs (every World topology, on either stepping
// path), but NOT for graphs grown with bare AddEdge.
func (g *Directed) HasEdgeSorted(u, v NodeID) bool {
	adj := g.out[u]
	i := lowerBound(adj, v)
	return i < len(adj) && adj[i] == v
}

// lowerBound returns the first index in the sorted list adj whose value is
// >= v. A monomorphic loop beats the generic slices.BinarySearch on the
// short adjacency lists the topology surgery operates on.
func lowerBound(adj []NodeID, v NodeID) int {
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Out returns the out-neighbours of u. The returned slice is owned by the
// graph; callers must not modify it.
func (g *Directed) Out(u NodeID) []NodeID { return g.out[u] }

// OutDegree returns the number of out-edges of u.
func (g *Directed) OutDegree(u NodeID) int { return len(g.out[u]) }

// SortAdjacency sorts every adjacency list ascending. Generators call it
// once so that iteration order — and hence every downstream random choice —
// is independent of insertion order.
func (g *Directed) SortAdjacency() {
	for _, adj := range g.out {
		slices.Sort(adj)
	}
	g.inOK = false
}

// ensureIn builds the reverse adjacency in CSR form if stale, reusing the
// offset and edge buffers from previous builds.
func (g *Directed) ensureIn() {
	if g.inOK {
		return
	}
	n := len(g.out)
	if cap(g.inOff) < n+1 {
		g.inOff = make([]int32, n+1)
	}
	g.inOff = g.inOff[:n+1]
	for i := range g.inOff {
		g.inOff[i] = 0
	}
	for _, adj := range g.out {
		for _, v := range adj {
			g.inOff[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	if cap(g.inEdges) < g.m {
		g.inEdges = make([]NodeID, g.m)
	}
	g.inEdges = g.inEdges[:g.m]
	// Fill using inOff[v] as a cursor; afterwards inOff[v] has advanced to
	// the start of v+1's range, so shift offsets back by one node.
	for u, adj := range g.out {
		for _, v := range adj {
			g.inEdges[g.inOff[v]] = NodeID(u)
			g.inOff[v]++
		}
	}
	for v := n; v > 0; v-- {
		g.inOff[v] = g.inOff[v-1]
	}
	g.inOff[0] = 0
	g.inOK = true
}

// In returns the in-neighbours of v. The returned slice is owned by the
// graph and valid until the next mutation; callers must not modify it.
func (g *Directed) In(v NodeID) []NodeID {
	g.ensureIn()
	return g.inEdges[g.inOff[v]:g.inOff[v+1]]
}

// Clone returns a deep copy of g. The copy packs all adjacency into one
// flat edge array (CSR style), so cloning costs two allocations however
// many nodes the graph has; the clone remains fully mutable (appending
// past a node's capacity migrates that list to its own storage).
func (g *Directed) Clone() *Directed {
	c := New(g.N())
	c.edges = make([]NodeID, 0, g.m)
	for u, adj := range g.out {
		if len(adj) == 0 {
			continue
		}
		start := len(c.edges)
		c.edges = append(c.edges, adj...)
		c.out[u] = c.edges[start:len(c.edges):len(c.edges)]
	}
	c.m = g.m
	return c
}

// Equal reports whether g and h have identical node counts and edge sets.
func (g *Directed) Equal(h *Directed) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for u := range g.out {
		if len(g.out[u]) != len(h.out[u]) {
			return false
		}
		for _, v := range g.out[u] {
			if !h.HasEdge(NodeID(u), v) {
				return false
			}
		}
	}
	return true
}

// BFSFrom returns dist[v] = hop count from src to v, with -1 for
// unreachable nodes.
func (g *Directed) BFSFrom(src NodeID) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, g.N())
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.out[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ReachableFrom returns the set (as a bool slice) of nodes reachable from
// src, including src itself.
func (g *Directed) ReachableFrom(src NodeID) []bool {
	seen := make([]bool, g.N())
	seen[src] = true
	stack := []NodeID{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.out[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// ReachScratch holds the reusable buffers of CanReachSetScratch. The zero
// value is ready; buffers grow on first use and are then reused.
type ReachScratch struct {
	seen  []bool
	queue []NodeID
}

// CanReachSet returns, for every node, whether some member of targets is
// reachable from it. It runs one reverse BFS from the target set, so it is
// O(N + M) regardless of |targets|.
func (g *Directed) CanReachSet(targets []NodeID) []bool {
	var s ReachScratch
	return g.CanReachSetScratch(targets, &s)
}

// CanReachSetScratch is CanReachSet with caller-owned scratch buffers: the
// returned slice aliases s and is valid until the next call with the same
// scratch. Per-step metric loops use it to avoid two allocations per step.
func (g *Directed) CanReachSetScratch(targets []NodeID, s *ReachScratch) []bool {
	g.ensureIn()
	n := g.N()
	if cap(s.seen) < n {
		s.seen = make([]bool, n)
		s.queue = make([]NodeID, 0, n)
	}
	s.seen = s.seen[:n]
	for i := range s.seen {
		s.seen[i] = false
	}
	queue := s.queue[:0]
	for _, t := range targets {
		if !s.seen[t] {
			s.seen[t] = true
			queue = append(queue, t)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.inEdges[g.inOff[v]:g.inOff[v+1]] {
			if !s.seen[u] {
				s.seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	s.queue = queue
	return s.seen
}

// StronglyConnected reports whether the graph is strongly connected
// (every node reaches every other). Vacuously true for N <= 1.
func (g *Directed) StronglyConnected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	fwd := g.ReachableFrom(0)
	for _, ok := range fwd {
		if !ok {
			return false
		}
	}
	back := g.CanReachSet([]NodeID{0})
	for _, ok := range back {
		if !ok {
			return false
		}
	}
	return true
}

// SCCs returns the strongly connected components (Tarjan, iterative),
// each component a slice of node IDs. Components are emitted in reverse
// topological order of the condensation.
func (g *Directed) SCCs() [][]NodeID {
	n := g.N()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		comps   [][]NodeID
		stack   []NodeID
		next    int32
		callU   []NodeID // explicit DFS call stack: node
		callEi  []int    // and position within its adjacency list
		pushDFS = func(u NodeID) {
			index[u] = next
			low[u] = next
			next++
			stack = append(stack, u)
			onStack[u] = true
			callU = append(callU, u)
			callEi = append(callEi, 0)
		}
	)
	for s := 0; s < n; s++ {
		if index[s] != unvisited {
			continue
		}
		pushDFS(NodeID(s))
		for len(callU) > 0 {
			u := callU[len(callU)-1]
			ei := callEi[len(callEi)-1]
			if ei < len(g.out[u]) {
				callEi[len(callEi)-1]++
				v := g.out[u][ei]
				if index[v] == unvisited {
					pushDFS(v)
				} else if onStack[v] && index[v] < low[u] {
					low[u] = index[v]
				}
				continue
			}
			// u is finished.
			callU = callU[:len(callU)-1]
			callEi = callEi[:len(callEi)-1]
			if len(callU) > 0 {
				parent := callU[len(callU)-1]
				if low[u] < low[parent] {
					low[parent] = low[u]
				}
			}
			if low[u] == index[u] {
				var comp []NodeID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == u {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// LargestSCC returns the node set of the largest strongly connected
// component.
func (g *Directed) LargestSCC() []NodeID {
	var best []NodeID
	for _, c := range g.SCCs() {
		if len(c) > len(best) {
			best = c
		}
	}
	return best
}

// DegreeStats summarises the out-degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// OutDegreeStats returns min/max/mean out-degree.
func (g *Directed) OutDegreeStats() DegreeStats {
	if g.N() == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: len(g.out[0]), Max: len(g.out[0])}
	total := 0
	for _, adj := range g.out {
		d := len(adj)
		total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Mean = float64(total) / float64(g.N())
	return st
}

// DiffEdges returns the number of edges present in g but not in h plus
// those in h but not in g — the symmetric-difference size. Both graphs
// must have the same node count.
func DiffEdges(g, h *Directed) int {
	if g.N() != h.N() {
		panic(fmt.Sprintf("graph: DiffEdges on mismatched sizes %d vs %d", g.N(), h.N()))
	}
	diff := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.out[u] {
			if !h.HasEdge(NodeID(u), v) {
				diff++
			}
		}
		for _, v := range h.out[u] {
			if !g.HasEdge(NodeID(u), v) {
				diff++
			}
		}
	}
	return diff
}

// Diameter returns the longest finite shortest-path distance between any
// ordered node pair, and whether every ordered pair is connected. It runs
// a BFS from every node — O(N·(N+M)) — so use it for analysis, not in
// simulation loops.
func (g *Directed) Diameter() (diameter int, connected bool) {
	n := g.N()
	connected = true
	for u := 0; u < n; u++ {
		dist := g.BFSFrom(NodeID(u))
		for _, d := range dist {
			if d < 0 {
				connected = false
				continue
			}
			if int(d) > diameter {
				diameter = int(d)
			}
		}
	}
	return diameter, connected
}
