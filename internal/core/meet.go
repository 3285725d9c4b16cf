package core

import (
	"math/bits"
	"slices"

	"repro/internal/knowledge"
)

// Grouper partitions agents by the node they occupy using reusable
// node-indexed buckets (a counting sort), replacing the per-step map the
// simulation loops used to allocate. One Grouper serves a whole run; the
// group slices its methods return are views into internal storage and are
// valid until the next call.
type Grouper struct {
	count   []int32  // per-node occupancy this round
	cursor  []int32  // per-node fill cursors / end offsets
	touched []NodeID // nodes with at least one agent this round
	members []*Agent // all agents, bucketed by node
	groups  [][]*Agent
}

// NewGrouper returns a grouper for a network of n nodes.
func NewGrouper(n int) *Grouper {
	return &Grouper{count: make([]int32, n), cursor: make([]int32, n)}
}

// Reset re-sizes the grouper for a network of n nodes, reusing its buckets
// when they are already big enough. Groupers keep their count array zeroed
// between calls, so a reset grouper behaves exactly like a fresh one —
// the property run-level executors rely on when recycling per-worker
// scratch across runs.
func (gr *Grouper) Reset(n int) {
	if cap(gr.count) < n {
		gr.count = make([]int32, n)
		gr.cursor = make([]int32, n)
		return
	}
	gr.count = gr.count[:n]
	gr.cursor = gr.cursor[:n]
	for i := range gr.count {
		gr.count[i] = 0
	}
}

// Meetings partitions agents by the node they currently occupy and
// returns the groups with at least two members — the meetings. Groups are
// ordered by node ID and members keep the order of the input slice, so
// meeting processing is deterministic.
func (gr *Grouper) Meetings(agents []*Agent) [][]*Agent {
	gr.touched = gr.touched[:0]
	for _, a := range agents {
		if gr.count[a.At] == 0 {
			gr.touched = append(gr.touched, a.At)
		}
		gr.count[a.At]++
	}
	slices.Sort(gr.touched)
	if cap(gr.members) < len(agents) {
		gr.members = make([]*Agent, len(agents))
	}
	gr.members = gr.members[:len(agents)]
	cum := int32(0)
	for _, node := range gr.touched {
		gr.cursor[node] = cum
		cum += gr.count[node]
	}
	for _, a := range agents {
		gr.members[gr.cursor[a.At]] = a
		gr.cursor[a.At]++
	}
	// cursor[node] now holds the end offset of node's bucket.
	gr.groups = gr.groups[:0]
	for _, node := range gr.touched {
		if gr.count[node] > 1 {
			end := gr.cursor[node]
			start := end - gr.count[node]
			gr.groups = append(gr.groups, gr.members[start:end:end])
		}
	}
	for _, node := range gr.touched {
		gr.count[node] = 0
	}
	return gr.groups
}

// MeetScratch holds the buffers a meeting needs. A simulation run owns
// one, next to its Grouper, and holds every meeting through it; runs on
// other goroutines hold their own. The zero value is ready.
type MeetScratch struct {
	sharers []*Agent
	vs      []*Agent
	masks   []uint64 // pre-meeting known-mask snapshots + their union
	mems    []*knowledge.Visits
	merge   knowledge.MergeScratch
}

// release clears the agent pointers, so a kept scratch does not pin a
// finished run's agents.
func (ms *MeetScratch) release() {
	clear(ms.sharers)
	clear(ms.vs)
	clear(ms.mems)
}

// ExchangeTopology is MeetScratch.ExchangeTopology on a scratch of its
// own, for one-off meetings; simulation loops hold a MeetScratch.
func ExchangeTopology(group []*Agent) {
	new(MeetScratch).ExchangeTopology(group)
}

// ExchangeRoutes is MeetScratch.ExchangeRoutes on a scratch of its own,
// for one-off meetings; simulation loops hold a MeetScratch.
func ExchangeRoutes(group []*Agent) {
	new(MeetScratch).ExchangeRoutes(group)
}

// ExchangeTopology runs the mapping-scenario meeting for one co-located
// group: every sharing agent learns, second-hand and simultaneously, the
// topology its peers know. Simultaneity is modelled by snapshotting every
// participant before any merge, so the outcome does not depend on member
// order. Agents flagged super-conscientious additionally merge visit
// histories — that is what lets peer experience steer their movement.
func (ms *MeetScratch) ExchangeTopology(group []*Agent) {
	defer ms.release()
	sharers := ms.sharers[:0]
	for _, a := range group {
		if a.SharesTopology() {
			sharers = append(sharers, a)
		}
	}
	ms.sharers = sharers
	if len(sharers) < 2 {
		return
	}
	// Everyone ends up with the union of the group's knowledge. The data
	// a holder passes on is identical whether it knew the record first-
	// or second-hand, so direct transfer from the first pre-meeting
	// knower preserves the simultaneous-exchange semantics. Pre-meeting
	// known-mask snapshots make the set arithmetic word-parallel: each
	// member's missing records are (union &^ own) scans, 64 nodes per
	// word, and the per-record holder search only runs for records that
	// actually transfer. Records known before the meeting are never
	// relearned during it, so a holder's neighbour list is stable while
	// the group updates.
	n := sharers[0].Topo.N()
	words := (n + 63) / 64
	need := (len(sharers) + 1) * words
	if cap(ms.masks) < need {
		ms.masks = make([]uint64, need)
	}
	masks := ms.masks[:need]
	union := masks[len(sharers)*words:]
	clear(union)
	for j, a := range sharers {
		snap := masks[j*words : (j+1)*words]
		copy(snap, a.Topo.KnownMask())
		for wi, mw := range snap {
			union[wi] |= mw
		}
	}
	for i, a := range sharers {
		a.Overhead.Meetings++
		snap := masks[i*words : (i+1)*words]
		for wi := 0; wi < words; wi++ {
			missing := union[wi] &^ snap[wi]
			for missing != 0 {
				b := bits.TrailingZeros64(missing)
				missing &= missing - 1
				u := NodeID(wi<<6 + b)
				for j := range sharers {
					if masks[j*words+wi]&(1<<uint(b)) != 0 {
						a.Topo.LearnSecondHand(u, sharers[j].Topo.Neighbors(u))
						break
					}
				}
				a.Overhead.TopoRecordsReceived++
			}
		}
	}
	mergeVisitSharers(sharers, ms)
	unifySalts(sharers)
}

// mergeVisitSharers merges the visit histories of the group's
// visit-sharing members into their union.
func mergeVisitSharers(group []*Agent, ms *MeetScratch) {
	vs := ms.vs[:0]
	for _, a := range group {
		if a.SharesVisits() {
			vs = append(vs, a)
		}
	}
	ms.vs = vs
	if len(vs) < 2 {
		return
	}
	if cap(ms.mems) < len(vs) {
		ms.mems = make([]*knowledge.Visits, len(vs))
	}
	mems := ms.mems[:len(vs)]
	for i, a := range vs {
		mems[i] = a.Visits
	}
	ms.mems = mems
	changed := ms.merge.MergeAll(mems)
	for i, a := range vs {
		a.Overhead.VisitRecordsReceived += changed[i]
	}
}

// unifySalts makes all visit-sharing members of a meeting adopt one salt:
// having merged their histories they are now identical deciders, the
// pathology the paper's Figs 5 and 11 document.
func unifySalts(group []*Agent) {
	var min uint64
	found := false
	for _, a := range group {
		if a.SharesVisits() && (!found || a.tieSalt < min) {
			min = a.tieSalt
			found = true
		}
	}
	if !found {
		return
	}
	for _, a := range group {
		if a.SharesVisits() {
			a.tieSalt = min
		}
	}
}

// ExchangeRoutes runs the routing-scenario meeting for one co-located
// group: all route-sharing agents adopt the best (fewest-hops, anchored)
// gateway trail present, and agents that also share visit histories merge
// them — the mechanism the paper identifies as making oldest-node agents
// identical after a meeting, so they chase one another.
func (ms *MeetScratch) ExchangeRoutes(group []*Agent) {
	defer ms.release()
	sharers := ms.sharers[:0]
	for _, a := range group {
		if a.SharesRoutes() {
			sharers = append(sharers, a)
		}
	}
	ms.sharers = sharers
	if len(sharers) < 2 {
		return
	}
	best := -1
	for i, a := range sharers {
		if !a.Trail.Anchored() {
			continue
		}
		if best < 0 || a.Trail.BetterThan(sharers[best].Trail) {
			best = i
		}
	}
	for i, a := range sharers {
		a.Overhead.Meetings++
		if best >= 0 && i != best && sharers[best].Trail.BetterThan(a.Trail) {
			a.Trail.CopyFrom(sharers[best].Trail)
			a.Overhead.TrailAdoptions++
		}
	}
	mergeVisitSharers(sharers, ms)
	unifySalts(sharers)
}
