package routing

import (
	"repro/internal/graph"
	"repro/internal/network"
)

// The Meter's input is one change record per measured step, captured on
// the run goroutine after the step's deposits. A delta record holds the
// edge edits since the previous record (the world's TopoDeltas) and the
// rows the tables' writes changed since then (their dirty list: Update and
// DropIf, deposits and fault purges alike, are the only mutators, and
// both mark it). A step the streams cannot cover — the first one, a fault
// epoch (the alive and gateway masks moved) or a missed world step —
// carries full state instead, and the Meter resyncs from it.
//
// Measure captures a record as views into the world and the tables and
// consumes it at once, so the inline path copies nothing. A run that
// measures on a helper goroutine copies each record into a loggedRecord,
// which stays valid while the run steps on.

// changeRecord is one measured step's changes, as the Meter consumes them.
type changeRecord struct {
	step int  // harness step: the reference for entry ages
	full bool // carries full state: the Meter resyncs from it

	// Edge edits since the previous record (delta records; empty when the
	// world did not step in between).
	addU, addV, remU, remV []NodeID

	// written lists the nodes whose rows changed since the previous
	// record; rows[u] is such a node's row after the step's writes. A full
	// record holds every node's row and ignores written.
	written []NodeID
	rows    [][]Entry

	// Full state (full records only): the topology, the two eligibility
	// masks the forests count, the in-service gateways and the alive count.
	topo       *graph.Directed
	elig       []bool // alive and not an in-service gateway
	needs      []bool // World.NeedsGateway
	gateways   []NodeID
	aliveCount int
}

// fillState captures w's full state into r: the topology as a view, the
// masks and gateway list into r's own storage.
func (r *changeRecord) fillState(w *network.World) {
	n := w.N()
	r.topo = w.Topology()
	if cap(r.elig) < n {
		r.elig = make([]bool, n)
		r.needs = make([]bool, n)
	}
	r.elig, r.needs = r.elig[:n], r.needs[:n]
	for u := range r.elig {
		id := NodeID(u)
		r.elig[u] = !w.IsGateway(id) && w.Alive(id)
		r.needs[u] = w.NeedsGateway(id)
	}
	r.gateways = append(r.gateways[:0], w.Gateways()...)
	r.aliveCount = w.AliveCount()
}

// changeSource captures change records from a world and its tables. It
// tracks what its consumer has seen, so it knows when the streams cover a
// step and when a record must carry full state.
type changeSource struct {
	w      *network.World
	ts     *Tables
	deltas *network.TopoDeltas

	lastEpoch int // fault epoch as of the last record
	lastStep  int // world step as of the last record
	synced    bool
}

// reset binds the source to a world/tables pair; its next record is a
// full one.
func (s *changeSource) reset(w *network.World, ts *Tables) {
	s.w, s.ts, s.deltas = w, ts, w.WatchTopology()
	s.synced = false
}

// view fills r with the changes since the previous record, as views: the
// edge pairs alias the world's stream and the rows the tables', so r is
// valid until the world steps or the tables are written again. The
// tables' dirty list is r.written; the caller clears it once r is
// consumed or copied.
func (s *changeSource) view(step int, r *changeRecord) {
	w, d := s.w, s.deltas
	r.step = step
	r.written, r.rows = s.ts.dirty, s.ts.rows
	r.addU, r.addV, r.remU, r.remV = nil, nil, nil, nil
	// The streams cover the step when the fault masks did not move and at
	// most one world step elapsed.
	r.full = !s.synced || w.FaultEpoch() != s.lastEpoch ||
		(w.StepCount() != s.lastStep && (d.Step != w.StepCount() || d.Step != s.lastStep+1))
	if r.full {
		s.synced, s.lastEpoch, s.lastStep = true, w.FaultEpoch(), w.StepCount()
		r.fillState(w)
		return
	}
	if w.StepCount() != s.lastStep {
		r.addU, r.addV, r.remU, r.remV = d.AddU, d.AddV, d.RemU, d.RemV
		s.lastStep = d.Step
	}
}

// loggedRecord is a change record that owns its contents, so it stays
// valid after the world steps and the tables are written again: what the
// run goroutine hands a measuring helper. Its storage is kept from record
// to record.
type loggedRecord struct {
	changeRecord
	addU, addV, remU, remV []NodeID
	written                []NodeID
	rows                   [][]Entry
	ents                   []Entry // backing store of rows
	topo                   graph.Directed
}

// capture takes the source's next record and copies it into c, then
// clears the tables' dirty list.
func (c *loggedRecord) capture(s *changeSource, step int) {
	r := &c.changeRecord
	s.view(step, r)
	c.addU = append(c.addU[:0], r.addU...)
	c.addV = append(c.addV[:0], r.addV...)
	c.remU = append(c.remU[:0], r.remU...)
	c.remV = append(c.remV[:0], r.remV...)
	r.addU, r.addV, r.remU, r.remV = c.addU, c.addV, c.remU, c.remV
	n := len(r.rows)
	c.written = c.written[:0]
	if r.full {
		for u := 0; u < n; u++ {
			c.written = append(c.written, NodeID(u))
		}
		c.topo.Reset(n)
		for u := 0; u < n; u++ {
			c.topo.SetOut(NodeID(u), r.topo.Out(NodeID(u)))
		}
		r.topo = &c.topo
	} else {
		c.written = append(c.written, r.written...)
	}
	c.copyRows(r.rows)
	r.written, r.rows = c.written, c.rows
	s.ts.clearDirty()
}

// copyRows copies the rows of the nodes on c.written from src into c's
// own storage.
func (c *loggedRecord) copyRows(src [][]Entry) {
	if cap(c.rows) < len(src) {
		c.rows = make([][]Entry, len(src))
	}
	c.rows = c.rows[:len(src)]
	total := 0
	for _, u := range c.written {
		total += len(src[u])
	}
	if cap(c.ents) < total {
		c.ents = make([]Entry, 0, 2*total)
	}
	ents := c.ents[:0]
	for _, u := range c.written {
		k := len(ents)
		ents = append(ents, src[u]...)
		c.rows[u] = ents[k:len(ents):len(ents)]
	}
	c.ents = ents
}
