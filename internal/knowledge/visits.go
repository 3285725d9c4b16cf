package knowledge

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// remembered nodes in no particular order. Last and Record are one array
// access; only eviction scans, over the at most Capacity listed nodes.
// Every observable order — eviction of the minimum step with ties to the
// lowest node ID, freshest-first merge order — comes from explicit
// comparison, never from storage order. Node IDs must be non-negative and
// steps lie in [0, math.MaxInt32-1).
type Visits struct {
	capacity int
	step     []int32 // node-indexed: last visit step + 1, 0 = not remembered
	nodes    []NodeID
}

// NewVisits returns a visit memory holding at most capacity entries
// (0 = unbounded).
func NewVisits(capacity int) *Visits {
	return &Visits{capacity: capacity}
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
	if prev == 0 {
		if v.capacity > 0 && len(v.nodes) >= v.capacity {
			v.evictOldest()
		}
		v.nodes = append(v.nodes, u)
	} else if s <= prev {
		return false
	}
	v.step[u] = s
	return true
}

// Last returns when u was last visited. ok is false if the agent never
// visited u or has forgotten the visit.
func (v *Visits) Last(u NodeID) (step int, ok bool) {
	if uint(u) < uint(len(v.step)) {
		if s := v.step[u]; s != 0 {
			return int(s) - 1, true
		}
	}
	return 0, false
}

// evictOldest removes the entry with the smallest step, breaking ties by
// smallest node ID, with one scan of the remembered-node list.
func (v *Visits) evictOldest() {
	vi := 0
	victim := v.nodes[0]
	victimStep := v.step[victim]
	for i, u := range v.nodes[1:] {
		if s := v.step[u]; s < victimStep || (s == victimStep && u < victim) {
			vi, victim, victimStep = i+1, u, s
		}
	}
	last := len(v.nodes) - 1
	v.nodes[vi] = v.nodes[last]
	v.nodes = v.nodes[:last]
	v.step[victim] = 0
}

// MergeFrom folds other's visit records into v, keeping the most recent
// step per node. This is the "become identical after meeting" mechanism of
// super-conscientious (mapping) and communicating oldest-node (routing)
// agents. It returns the number of records that changed v.
//
// Records are applied freshest-first (ties by node ID), so bounded merges
// evict deterministically.
func (v *Visits) MergeFrom(other *Visits) int {
	entries := make([]visitRec, len(other.nodes))
	for i, u := range other.nodes {
		entries[i] = visitRec{node: u, step: other.step[u]}
	}
	slices.SortFunc(entries, freshestFirst)
	changed := 0
	for _, e := range entries {
		if v.put(e.node, e.step) {
			changed++
		}
	}
	return changed
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
// records were added or refreshed. It is much cheaper than pairwise
// MergeFrom for the clumped groups cooperation produces.
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
// The union is gathered through the dense scratch table. It is sorted
// freshest-first only when some member's capacity truncates it; a member
// that keeps the whole union already holds a subset of it, so it is
// upgraded in place, and unbounded (super-conscientious) merges never
// sort at all.
func (s *MergeScratch) MergeAll(ms []*Visits) []int {
	size := 0
	for _, m := range ms {
		size = max(size, len(m.step))
	}
	if len(s.union) < size {
		s.union = make([]int32, size)
	}
	union := s.union
	entries := s.entries[:0]
	for _, m := range ms {
		for _, u := range m.nodes {
			st := m.step[u]
			if union[u] == 0 {
				entries = append(entries, visitRec{node: u})
			}
			if st > union[u] {
				union[u] = st
			}
		}
	}
	for i := range entries {
		u := entries[i].node
		entries[i].step = union[u]
		union[u] = 0
	}
	truncates := func(m *Visits) bool { return m.capacity > 0 && m.capacity < len(entries) }
	if slices.ContainsFunc(ms, truncates) {
		slices.SortFunc(entries, freshestFirst)
	}
	s.entries = entries
	if cap(s.changed) < len(ms) {
		s.changed = make([]int, len(ms))
	}
	changed := s.changed[:len(ms)]
	for i, m := range ms {
		changed[i] = 0
		if !truncates(m) {
			// The whole union survives and contains every record m
			// holds, so upgrading m in place equals installing it.
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
		kept := entries[:m.capacity]
		for _, e := range kept {
			m.cover(e.node)
			if e.step > m.step[e.node] {
				changed[i]++
			}
		}
		for _, u := range m.nodes {
			m.step[u] = 0
		}
		m.nodes = m.nodes[:0]
		for _, e := range kept {
			m.step[e.node] = e.step
			m.nodes = append(m.nodes, e.node)
		}
	}
	return changed
}

// Clone returns a deep copy.
func (v *Visits) Clone() *Visits {
	return &Visits{
		capacity: v.capacity,
		step:     slices.Clone(v.step),
		nodes:    slices.Clone(v.nodes),
	}
}
