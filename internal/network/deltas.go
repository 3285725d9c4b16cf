package network

import "repro/internal/graph"

// TopoDeltas is the world's per-step edge-change stream: exactly the
// directed edges the last Step added and removed. Every stepping path
// writes it — the incremental engine streams its surgical edits, the full
// rebuild (fault steps, partition-active steps, SetFullRebuild) merge-diffs
// the previous and new topologies, and replay worlds apply the recorded
// diff — so each entry is a real change of the graph, reported once, and
// the report sizes are the step's link churn. The World owns the buffer,
// resets it at the top of every Step, and keeps it valid until the next
// one; consumers read it through World.WatchTopology, each keeping its own
// step cursor (Step), and fall back to a full resync when their cursor
// shows a missed step.
type TopoDeltas struct {
	// Step is the world step these deltas describe (StepCount after it).
	Step int
	// AddU/AddV and RemU/RemV are the added and removed directed edges,
	// as parallel slices.
	AddU, AddV []NodeID
	RemU, RemV []NodeID
}

func (d *TopoDeltas) reset(step int) {
	d.Step = step
	d.AddU = d.AddU[:0]
	d.AddV = d.AddV[:0]
	d.RemU = d.RemU[:0]
	d.RemV = d.RemV[:0]
}

func (d *TopoDeltas) add(u, v NodeID) {
	d.AddU = append(d.AddU, u)
	d.AddV = append(d.AddV, v)
}

func (d *TopoDeltas) remove(u, v NodeID) {
	d.RemU = append(d.RemU, u)
	d.RemV = append(d.RemV, v)
}

// diff streams the edges that differ between old and cur, two graphs over
// the same nodes with sorted out-lists, by merging each node's lists —
// O(E_old + E_cur).
func (d *TopoDeltas) diff(old, cur *graph.Directed) {
	for u := NodeID(0); int(u) < cur.N(); u++ {
		prev, next := old.Out(u), cur.Out(u)
		i, j := 0, 0
		for i < len(prev) && j < len(next) {
			switch {
			case prev[i] == next[j]:
				i++
				j++
			case prev[i] < next[j]:
				d.remove(u, prev[i])
				i++
			default:
				d.add(u, next[j])
				j++
			}
		}
		for ; i < len(prev); i++ {
			d.remove(u, prev[i])
		}
		for ; j < len(next); j++ {
			d.add(u, next[j])
		}
	}
}

// WatchTopology returns the world's per-step edge-change stream. The
// buffer exists for the world's whole life and is rewritten by every Step;
// any number of consumers may read it, each keeping its own cursor. A
// consumer starts from a full read of Topology() and thereafter applies
// one step's deltas per Step.
func (w *World) WatchTopology() *TopoDeltas { return &w.deltas }
