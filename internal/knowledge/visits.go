package knowledge

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Visits is an agent's bounded memory of when it last visited each node.
// It drives the conscientious / super-conscientious / oldest-node policies:
// "go to the neighbour you have never visited, don't remember visiting, or
// visited longest ago."
//
// Capacity 0 means unbounded. When bounded and full, the entry with the
// oldest step is evicted — forgetting the most distant visit first, which
// is what a fixed-size ring of visit records would do.
//
// The memory is a per-node lookup table: step[u] holds the last visit
// step of node u plus one (0 = not remembered), and nodes lists the
// remembered nodes. Last is one array access. A bounded memory keeps
// nodes in ascending (step, node) order, so its eviction victim — the
// minimum step, ties to the lowest node ID — is always the front: a fresh
// visit appends (the common case), eviction drops the front, and a
// refreshed node moves by binary search. An unbounded memory never evicts
// and keeps nodes in insertion order. Merge order — freshest first — comes
// from explicit comparison, never from storage order. Node IDs must be
// non-negative and steps lie in [0, math.MaxInt32-1).
//
// A memory also carries a merge lineage: a token (0 = none) shared by the
// members a MergeAll left identical, and a dirty list of the nodes it has
// written or evicted since. Two memories with the same token agree on
// every node in neither dirty list, so their next merge need only look
// at those lists. The lineage changes what a merge costs, never what it
// produces.
type Visits struct {
	capacity int
	step     []int32 // node-indexed: last visit step + 1, 0 = not remembered
	nodes    []NodeID
	token    uint64   // merge lineage, 0 = none
	dirty    []NodeID // nodes written or evicted since the lineage began
}

// lineageTokens issues merge-lineage tokens. Concurrent runs draw from it
// at the same time, so it is atomic; results depend only on which
// memories share a token, never on its value.
var lineageTokens atomic.Uint64

// NewVisits returns a visit memory holding at most capacity entries
// (0 = unbounded).
func NewVisits(capacity int) *Visits {
	return &Visits{capacity: capacity}
}

// Reset empties v and bounds it at capacity (0 = unbounded), keeping its
// storage: afterwards v behaves exactly like NewVisits(capacity) grown to
// v's table size. It also leaves v's merge lineage.
func (v *Visits) Reset(capacity int) {
	v.capacity = capacity
	clear(v.step)
	v.nodes = v.nodes[:0]
	v.dropLineage()
}

// Len returns the number of remembered nodes.
func (v *Visits) Len() int { return len(v.nodes) }

// Capacity returns the configured bound (0 = unbounded).
func (v *Visits) Capacity() int { return v.capacity }

// Grow sizes the node-indexed table for node IDs below n, so recording
// visits on an n-node network never reallocates. Without it the table
// grows on first touch of a node beyond its end.
func (v *Visits) Grow(n int) {
	if n > len(v.step) {
		v.step = append(v.step, make([]int32, n-len(v.step))...)
	}
}

// cover makes step[u] addressable, doubling the table at least so a
// memory grown node by node reallocates O(log n) times.
func (v *Visits) cover(u NodeID) {
	if int(u) >= len(v.step) {
		v.Grow(max(int(u)+1, 2*len(v.step)))
	}
}

// encodeStep packs a visit step into the table's step+1 form.
func encodeStep(step int) int32 {
	if step < 0 || step >= math.MaxInt32 {
		panic(fmt.Sprintf("knowledge: visit step %d outside [0, %d)", step, math.MaxInt32))
	}
	return int32(step + 1)
}

// Record notes that the agent stood on node u at the given step.
func (v *Visits) Record(u NodeID, step int) {
	v.put(u, encodeStep(step))
}

// put installs encoded step s for u unless u holds a step at least as
// recent, evicting first when u is new and the memory is full. It
// reports whether v changed.
func (v *Visits) put(u NodeID, s int32) bool {
	v.cover(u)
	prev := v.step[u]
	if prev != 0 && s <= prev {
		return false
	}
	switch {
	case v.capacity == 0:
		if prev == 0 {
			v.nodes = append(v.nodes, u)
		}
	case prev == 0:
		if len(v.nodes) >= v.capacity {
			v.evictOldest()
		}
		v.insertOrdered(u, s)
	default:
		i := v.search(u, prev)
		v.nodes = slices.Delete(v.nodes, i, i+1)
		v.insertOrdered(u, s)
	}
	v.step[u] = s
	v.markDirty(u)
	return true
}

// search returns the position of (s, u) in a bounded memory's ascending
// (step, node) order.
func (v *Visits) search(u NodeID, s int32) int {
	i, _ := slices.BinarySearchFunc(v.nodes, u, func(w, u NodeID) int {
		if c := cmp.Compare(v.step[w], s); c != 0 {
			return c
		}
		return cmp.Compare(w, u)
	})
	return i
}

// insertOrdered places u, about to hold encoded step s, at its position
// in a bounded memory's order: an append when s is the newest step.
func (v *Visits) insertOrdered(u NodeID, s int32) {
	if n := len(v.nodes); n == 0 || ascending(v.step[v.nodes[n-1]], v.nodes[n-1], s, u) {
		v.nodes = append(v.nodes, u)
		return
	}
	v.nodes = slices.Insert(v.nodes, v.search(u, s), u)
}

// ascending reports whether (s1, u1) precedes (s2, u2) in a bounded
// memory's (step, node) order.
func ascending(s1 int32, u1 NodeID, s2 int32, u2 NodeID) bool {
	return s1 < s2 || (s1 == s2 && u1 < u2)
}

// markDirty notes a write or eviction of u for the merge lineage. A dirty
// list that would outgrow the memory's own record count is no cheaper to
// merge than the records themselves, so the lineage is dropped instead.
func (v *Visits) markDirty(u NodeID) {
	if v.token == 0 {
		return
	}
	if len(v.dirty) >= len(v.nodes) {
		v.dropLineage()
		return
	}
	v.dirty = append(v.dirty, u)
}

// dropLineage detaches v from its merge lineage.
func (v *Visits) dropLineage() {
	v.token = 0
	v.dirty = v.dirty[:0]
}

// at returns u's encoded step, 0 when u is not remembered.
func (v *Visits) at(u NodeID) int32 {
	if uint(u) < uint(len(v.step)) {
		return v.step[u]
	}
	return 0
}

// Last returns when u was last visited. ok is false if the agent never
// visited u or has forgotten the visit.
func (v *Visits) Last(u NodeID) (step int, ok bool) {
	if s := v.at(u); s != 0 {
		return int(s) - 1, true
	}
	return 0, false
}

// evictOldest removes a bounded memory's entry with the smallest step,
// breaking ties by smallest node ID: the front of its order.
func (v *Visits) evictOldest() {
	victim := v.nodes[0]
	v.nodes = slices.Delete(v.nodes, 0, 1)
	v.step[victim] = 0
	v.markDirty(victim)
}

// visitRec is one remembered visit, its step in the table's step+1 form.
type visitRec struct {
	node NodeID
	step int32
}

// freshestFirst orders records by descending step, then ascending node ID.
func freshestFirst(a, b visitRec) int {
	if c := cmp.Compare(b.step, a.step); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}

// MergeAll folds the visit memories of a meeting group into their union —
// the most recent step per node — and installs that union in every member,
// bounded to each member's own capacity by dropping the oldest records.
// Afterwards equal-capacity members are identical, which is exactly the
// post-meeting state the paper describes. It returns, per member, how many
// records were added or refreshed. It is much cheaper than merging the
// members pairwise for the clumped groups cooperation produces.
func MergeAll(ms []*Visits) []int {
	var s MergeScratch
	return s.MergeAll(ms)
}

// MergeScratch carries the reusable buffers of MergeAll: a node-indexed
// union table (all zero between calls), the union's record list, and the
// per-member change counts. Meetings happen tens of thousands of times
// per run, so reusing these is a large share of making the simulation
// loop allocation-free. The zero value is ready; the slice MergeAll
// returns aliases the scratch and is valid until the next call.
type MergeScratch struct {
	union   []int32
	entries []visitRec
	changed []int
}

// MergeAll is the scratch-buffered form of the package-level MergeAll:
// identical results and member states, zero steady-state allocations.
//
// Only the union's differences from each member matter, so the gather
// reads candidate nodes: when every member carries one lineage token, the
// members' dirty lists, since all of them agree everywhere else; in any
// other meeting, every record each member holds. The union is sorted
// freshest-first only when some member's capacity truncates it, and that
// needs the full gather. A member that keeps the whole union already
// holds a subset of it, so it is upgraded in place over the candidates,
// and unbounded (super-conscientious) merges never sort at all. A merge
// that leaves every member identical starts a fresh lineage.
func (s *MergeScratch) MergeAll(ms []*Visits) []int {
	lineage := sharesLineage(ms)
	size := s.gather(ms, lineage)
	truncates := func(m *Visits) bool { return m.capacity > 0 && m.capacity < size }
	anyTruncates := slices.ContainsFunc(ms, truncates)
	if lineage && anyTruncates {
		// The kept prefix depends on the whole union's order.
		size = s.gather(ms, false)
	}
	entries := s.entries
	if anyTruncates {
		slices.SortFunc(entries, freshestFirst)
	}
	identical := !anyTruncates ||
		!slices.ContainsFunc(ms, func(m *Visits) bool { return m.capacity != ms[0].capacity })
	if cap(s.changed) < len(ms) {
		s.changed = make([]int, len(ms))
	}
	changed := s.changed[:len(ms)]
	for i, m := range ms {
		changed[i] = 0
		if identical {
			m.dropLineage() // a fresh one follows; nothing to mark meanwhile
		}
		if !truncates(m) {
			// The whole union survives and contains every record m
			// holds, and m already agrees with it off the candidates,
			// so upgrading m over them equals installing the union.
			for _, e := range entries {
				if m.put(e.node, e.step) {
					changed[i]++
				}
			}
			continue
		}
		// Truncated: count what the kept prefix adds or refreshes against
		// the member's pre-meeting state, then clear just the member's own
		// records and install the prefix.
		m.dropLineage()
		kept := entries[:m.capacity]
		for _, e := range kept {
			if e.step > m.at(e.node) {
				changed[i]++
			}
		}
		for _, u := range m.nodes {
			m.step[u] = 0
		}
		m.nodes = m.nodes[:0]
		for j := len(kept) - 1; j >= 0; j-- {
			e := kept[j]
			m.cover(e.node)
			m.step[e.node] = e.step
			m.nodes = append(m.nodes, e.node)
		}
		// The reversed freshest-first prefix ascends by step but descends
		// by node within a step: reverse each equal-step run.
		for j := 0; j < len(m.nodes); {
			k := j + 1
			for k < len(m.nodes) && m.step[m.nodes[k]] == m.step[m.nodes[j]] {
				k++
			}
			slices.Reverse(m.nodes[j:k])
			j = k
		}
	}
	if identical {
		token := lineageTokens.Add(1)
		for _, m := range ms {
			m.token = token
		}
	}
	return changed
}

// sharesLineage reports whether every member carries one non-zero
// lineage token.
func sharesLineage(ms []*Visits) bool {
	return len(ms) > 0 && ms[0].token != 0 &&
		!slices.ContainsFunc(ms[1:], func(m *Visits) bool { return m.token != ms[0].token })
}

// gather collects into s.entries the union records — the most recent
// step over all members — of the candidate nodes: the members' dirty
// lists when lineage is set, else every record they hold. It returns the
// union's size, counted as the first member's records plus the
// candidates it lacks; off the candidates every member agrees with it.
func (s *MergeScratch) gather(ms []*Visits, lineage bool) int {
	if len(ms) == 0 {
		s.entries = s.entries[:0]
		return 0
	}
	size := 0
	for _, m := range ms {
		size = max(size, len(m.step))
	}
	if len(s.union) < size {
		s.union = make([]int32, size)
	}
	union := s.union // marks candidates already gathered
	entries := s.entries[:0]
	for _, m := range ms {
		candidates := m.nodes
		if lineage {
			candidates = m.dirty
		}
		for _, u := range candidates {
			if union[u] != 0 {
				continue
			}
			var st int32
			for _, o := range ms {
				st = max(st, o.at(u))
			}
			if st != 0 { // held by some member
				union[u] = st
				entries = append(entries, visitRec{node: u, step: st})
			}
		}
	}
	n := ms[0].Len()
	for _, e := range entries {
		union[e.node] = 0
		if ms[0].at(e.node) == 0 {
			n++
		}
	}
	s.entries = entries
	return n
}

// Clone returns a deep copy.
func (v *Visits) Clone() *Visits {
	return &Visits{
		capacity: v.capacity,
		step:     slices.Clone(v.step),
		nodes:    slices.Clone(v.nodes),
		token:    v.token,
		dirty:    slices.Clone(v.dirty),
	}
}
