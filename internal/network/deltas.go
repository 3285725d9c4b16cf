package network

// TopoDeltas is the per-step topology change stream consumers subscribe to
// through World.WatchTopology: the directed edges the last Step added and
// removed, or — when the step ran through a path that rewrites the whole
// graph (full rebuilds, fault events, out-of-band SetFaults/snapshot
// restores) — the Rebuilt flag instead of an edge list. The buffer is
// reset at the top of every Step and is valid until the next one;
// consumers keep their own step cursor (Step) and must fall back to a full
// resync whenever Rebuilt is set or their cursor shows a missed step.
//
// The stream may over-report: the incremental engine emits at decision
// points, so an entry can name an edge whose surgical edit turned
// out to be a no-op (it was already present or already gone). Consumers
// must tolerate that — the DynReach protocol does by construction. The
// stream never under-reports on a step with Rebuilt == false.
type TopoDeltas struct {
	// Step is the world step these deltas describe (StepCount after it).
	Step int
	// Rebuilt marks a step whose changes are not enumerated: the topology
	// was rewritten wholesale. Consumers must resync. Out-of-band rebuilds
	// (SetFaults detach, snapshot restore) set it too, outside any Step.
	Rebuilt bool
	// AddU/AddV and RemU/RemV are the added and removed directed edges,
	// as parallel slices.
	AddU, AddV []NodeID
	RemU, RemV []NodeID
}

func (d *TopoDeltas) reset(step int) {
	d.Step = step
	d.Rebuilt = false
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

// WatchTopology attaches (or returns the already-attached) per-step
// topology delta buffer. The World owns the buffer and rewrites it every
// Step; multiple consumers may read it, each keeping its own cursor.
// Watching is free on the full-rebuild path and costs two appends per
// churned edge on the incremental and replay paths; an unwatched world
// pays nothing. The returned buffer starts with Rebuilt set so a consumer
// attaching mid-run starts from a resync.
func (w *World) WatchTopology() *TopoDeltas {
	if w.watch == nil {
		w.watch = &TopoDeltas{Step: w.step, Rebuilt: true}
	}
	return w.watch
}
