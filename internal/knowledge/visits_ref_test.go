package knowledge

// This file keeps the original map-backed visit memory as the reference
// implementation the dense Visits is checked against (see
// FuzzVisitsOps and TestVisitsMatchReferenceRandomized). It is the
// production code as it stood before the rewrite, with only its
// identifiers renamed so both can live in one package.

import (
	"slices"
	"sort"
)

// refVisits is an agent's bounded memory of when it last visited each node.
// It drives the conscientious / super-conscientious / oldest-node policies:
// "go to the neighbour you have never visited, don't remember visiting, or
// visited longest ago."
//
// Capacity 0 means unbounded. When bounded and full, the entry with the
// oldest step is evicted — forgetting the most distant visit first, which
// is what a fixed-size ring of visit records would do.
type refVisits struct {
	capacity int
	last     map[NodeID]int
}

// newRefVisits returns a visit memory holding at most capacity entries
// (0 = unbounded).
func newRefVisits(capacity int) *refVisits {
	return &refVisits{capacity: capacity, last: make(map[NodeID]int)}
}

// Len returns the number of remembered nodes.
func (v *refVisits) Len() int { return len(v.last) }

// Capacity returns the configured bound (0 = unbounded).
func (v *refVisits) Capacity() int { return v.capacity }

// Record notes that the agent stood on node u at the given step.
func (v *refVisits) Record(u NodeID, step int) {
	if _, ok := v.last[u]; !ok && v.capacity > 0 && len(v.last) >= v.capacity {
		v.evictOldest()
	}
	if prev, ok := v.last[u]; !ok || step > prev {
		v.last[u] = step
	}
}

// Last returns when u was last visited. ok is false if the agent never
// visited u or has forgotten the visit.
func (v *refVisits) Last(u NodeID) (step int, ok bool) {
	step, ok = v.last[u]
	return step, ok
}

// evictOldest removes the entry with the smallest step, breaking ties by
// smallest node ID so the choice is deterministic regardless of map
// iteration order.
func (v *refVisits) evictOldest() {
	first := true
	var victim NodeID
	victimStep := 0
	for u, s := range v.last {
		if first || s < victimStep || (s == victimStep && u < victim) {
			victim, victimStep, first = u, s, false
		}
	}
	if !first {
		delete(v.last, victim)
	}
}

// MergeFrom folds other's visit records into v, keeping the most recent
// step per node. This is the "become identical after meeting" mechanism of
// super-conscientious (mapping) and communicating oldest-node (routing)
// agents. It returns the number of records that changed v.
//
// Records are applied freshest-first (ties by node ID) rather than in map
// iteration order, so bounded merges evict deterministically.
func (v *refVisits) MergeFrom(other *refVisits) int {
	entries := make([]refVisitRec, 0, len(other.last))
	for u, s := range other.last {
		entries = append(entries, refVisitRec{node: u, step: s})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].step != entries[j].step {
			return entries[i].step > entries[j].step
		}
		return entries[i].node < entries[j].node
	})
	changed := 0
	for _, e := range entries {
		if prev, ok := v.last[e.node]; !ok || e.step > prev {
			// Eviction applies only to brand-new entries.
			if !ok && v.capacity > 0 && len(v.last) >= v.capacity {
				v.evictOldest()
			}
			v.last[e.node] = e.step
			changed++
		}
	}
	return changed
}

type refVisitRec struct {
	node NodeID
	step int
}

// refMergeAll folds the visit memories of a meeting group into their union —
// the most recent step per node — and installs that union in every member,
// bounded to each member's own capacity by dropping the oldest records.
// Afterwards equal-capacity members are identical, which is exactly the
// post-meeting state the paper describes. It returns, per member, how many
// records were added or refreshed. It is much cheaper than pairwise
// MergeFrom for the clumped groups cooperation produces.
func refMergeAll(ms []*refVisits) []int {
	var s refMergeScratch
	return s.MergeAll(ms)
}

// refMergeScratch carries the reusable buffers of MergeAll: the union map,
// the sorted record list, and the per-member change counts. Meetings
// happen tens of thousands of times per run, so reusing these is a large
// share of making the simulation loop allocation-free. The zero value is
// ready; the slice MergeAll returns aliases the scratch and is valid until
// the next call.
type refMergeScratch struct {
	union   map[NodeID]int
	entries []refVisitRec
	changed []int
}

// MergeAll is the scratch-buffered form of the package-level refMergeAll:
// identical results and member states, zero steady-state allocations.
func (s *refMergeScratch) MergeAll(ms []*refVisits) []int {
	if s.union == nil {
		s.union = make(map[NodeID]int)
	} else {
		clear(s.union)
	}
	for _, m := range ms {
		for u, st := range m.last {
			if p, ok := s.union[u]; !ok || st > p {
				s.union[u] = st
			}
		}
	}
	entries := s.entries[:0]
	for u, st := range s.union {
		entries = append(entries, refVisitRec{node: u, step: st})
	}
	slices.SortFunc(entries, func(a, b refVisitRec) int {
		if a.step != b.step {
			if a.step > b.step {
				return -1
			}
			return 1
		}
		if a.node != b.node {
			if a.node < b.node {
				return -1
			}
			return 1
		}
		return 0
	})
	s.entries = entries
	if cap(s.changed) < len(ms) {
		s.changed = make([]int, len(ms))
	}
	changed := s.changed[:len(ms)]
	for i, m := range ms {
		kept := entries
		if m.capacity > 0 && len(kept) > m.capacity {
			kept = kept[:m.capacity]
		}
		// Count what the union adds or refreshes against the member's
		// pre-meeting state, then rewrite the member in place — the
		// entries are unique per node, so counting first and installing
		// second matches building a fresh map.
		changed[i] = 0
		for _, e := range kept {
			if p, ok := m.last[e.node]; !ok || e.step > p {
				changed[i]++
			}
		}
		clear(m.last)
		for _, e := range kept {
			m.last[e.node] = e.step
		}
	}
	return changed
}

// Clone returns a deep copy.
func (v *refVisits) Clone() *refVisits {
	c := newRefVisits(v.capacity)
	for u, s := range v.last {
		c.last[u] = s
	}
	return c
}
