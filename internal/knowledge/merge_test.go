package knowledge

import (
	"math/bits"
	"slices"
)

// Pairwise merges. The agents exchange knowledge through MergeAll and the
// meeting code's group merges; these one-way forms serve the tests as
// referees and as a short way to give one map another's knowledge.

// MergeFrom folds other's visit records into v, keeping the most recent
// step per node: the pairwise form of the "become identical after
// meeting" merge, which the agents do through MergeAll. It returns the
// number of records that changed v. The tests use it as MergeAll's
// pairwise referee.
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

// MergeFrom copies everything other knows that t does not, as second-hand
// knowledge, and returns the number of node records transferred: the
// one-way form of a topology exchange, which the tests use to build and
// compare maps. The transferable set comes from a word-parallel scan of
// the known masks (other &^ t), in ascending node order.
func (t *Topology) MergeFrom(other *Topology) int {
	moved := 0
	for wi, ow := range other.mask {
		missing := ow &^ t.mask[wi]
		for missing != 0 {
			u := NodeID(wi<<6 + bits.TrailingZeros64(missing))
			missing &= missing - 1
			t.LearnSecondHand(u, other.adj[u])
			moved++
		}
	}
	return moved
}
