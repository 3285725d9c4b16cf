package network

// Trajectory replay: the third world-stepping engine, alongside the full
// rebuild and the incremental engine.
//
// The paper's agents only *observe* the world — mobility and link churn
// evolve independently of agent decisions — so every replication and every
// sweep point over one (world spec, seed, fault schedule) steps an
// identical world. A TrajectoryRecorder captures one live run's evolution
// — position deltas, edge add/remove churn, range updates, fault-epoch
// transitions — into an in-memory Trajectory. Subsequent runs replay it
// through World.Step, which on a replay world applies the cached churn in
// O(changes) with zero mobility RNG, zero disc scans, and zero grid
// maintenance, and is bit-identical to live stepping (pinned by the
// equivalence and -race gates in trajectory_test.go).
//
// A tape can be read while it is written. After every step the recorder
// publishes the bytes written so far to both streams and the number of
// steps they cover; it only ever appends, so readers keep reading what
// they were handed while it writes on. A replay world that catches up
// with the recorder waits until the step it needs is published or the
// tape is finished. It calls a step empty only once the published part
// covers that step: a gap is written together with the record that ends
// it, so running out of bytes on an unfinished tape says nothing about
// the steps beyond the published count. Lookahead (lookahead.go) builds
// on this to step a live world on a helper goroutine while a routing run
// replays it.
//
// A replay step applies only what a run reads on every step: the edge
// churn and the fault state. Positions and ranges, which only geometry
// readers (Pos, Positions, Radio, Snapshot, the world recorders) look at,
// are decoded when one of them reads: each step counts the records whose
// geometry it leaves pending, and the reader's catch-up (syncGeometry)
// decodes those bodies in order first. So the tape holds two streams, one
// record each per step that changed anything, published together.
//
// The topology stream, read on every step:
//
//	uvarint gap<<1 | fault   gap: empty steps preceding this record;
//	                         fault: the record is a fault epoch
//	pairs adds               edges that appeared (see trajAppendPairs)
//	pairs removes            edges that vanished
//	fault records only, the complete fault state and the counter advances:
//	ids dead                 dead nodes (see trajAppendIDs)
//	ids down                 out-of-service gateways
//	byte partition [u64 cut] whether a partition is active, and its cut
//	uvarint injected         the faults_* counter advances
//	uvarint recovered
//
// The geometry stream holds one trace.DeltaCodec body per record: the
// moved positions and changed ranges, with no fault state. Its float lanes
// form one predictor chain over the whole tape, exactly as in a binary log
// between two anchors.
//
// Trailing empty steps carry no bytes at all (the step count bounds them).

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/trace"
)

// Trajectory is a recorded world evolution: the start state, the
// topology stream and the geometry stream. Readers may replay it while
// the recorder is still writing it: each World() call gets its own decode
// cursor, which reads only what the recorder has published. After Finish
// it is immutable and safe to share across any number of replay worlds.
type Trajectory struct {
	n       int
	dynamic bool

	// The start state, taken by TrajectoryRecorder.reset: the world's step
	// count, a snapshot of its geometry and fault masks, an owned copy of
	// its links, and the fault bookkeeping the snapshot leaves out.
	start  int
	snap   Snapshot
	links  *graph.Directed
	faults startFaults

	// Written by the recorder alone; readers see them through pub.
	topo    []byte // the topology stream
	geom    []byte // the geometry stream
	steps   int
	records int

	mu   sync.Mutex
	cond sync.Cond // broadcast on every publish; L is &mu
	pub  tapeView  // guarded by mu
}

// startFaults is the fault bookkeeping at a tape's start beyond the masks
// its snapshot holds, so that a replay world reports FaultEpoch,
// LastFaultEvents and the fault counters as the recorded world did.
type startFaults struct {
	on                  bool // the recorded world had fault state
	sched               *faults.Schedule
	epoch               int
	lastEvents          []faults.Event
	injected, recovered uint64
}

// tapeView is what readers see of a tape: a prefix of each stream, both
// ending on the same record boundary, the steps those prefixes cover, and
// whether the recorder has finished (or failed).
type tapeView struct {
	topo    []byte
	geom    []byte
	steps   int
	records int
	done    bool
	err     error // the recorder stopped without finishing the tape
}

// publish makes everything recorded so far visible to readers and wakes
// any reader waiting for it. The recorder never rewrites published
// bytes, it only appends, so readers may keep reading a prefix they were
// handed while the recorder writes past it.
func (t *Trajectory) publish(done bool, err error) {
	t.mu.Lock()
	t.pub = tapeView{topo: t.topo, geom: t.geom, steps: t.steps, records: t.records, done: done, err: err}
	t.cond.Broadcast()
	t.mu.Unlock()
}

// await blocks until the published tape covers step (counted from 1) or
// is finished, and returns what is published.
func (t *Trajectory) await(step int) tapeView {
	t.mu.Lock()
	for t.pub.steps < step && !t.pub.done {
		t.cond.Wait()
	}
	v := t.pub
	t.mu.Unlock()
	return v
}

// view returns what is published now, without waiting.
func (t *Trajectory) view() tapeView {
	t.mu.Lock()
	v := t.pub
	t.mu.Unlock()
	return v
}

// Steps returns how many world steps the trajectory covers; while it is
// still being recorded, how many are published so far.
func (t *Trajectory) Steps() int { return t.view().steps }

// N returns the node count of the recorded world.
func (t *Trajectory) N() int { return t.n }

// Dynamic reports whether the recorded world was dynamic.
func (t *Trajectory) Dynamic() bool { return t.dynamic }

// Records returns how many non-empty step records the published stream
// holds.
func (t *Trajectory) Records() int { return t.view().records }

// World builds a fresh replay world positioned at the trajectory's start.
// Every Step on it applies the next recorded edge churn and fault state
// instead of running mobility, decay, or topology maintenance, and its
// positions and ranges are decoded when they are read. A Step the
// recorder has not published yet waits for it, and stepping past a
// finished tape panics. Worlds from the same Trajectory are independent
// (the shared data is read only), so concurrent replications are
// race-free, but one world's Step and geometry reads are not safe for
// concurrent use. The error is always nil: the tape's start was taken
// from a well-formed world.
func (t *Trajectory) World() (*World, error) {
	return t.replayInto(nil, new(trajDecoder)), nil
}

// replayInto makes w the replay world at the tape's start, reading the
// tape through dec, and returns it. A replay world of the tape's size is
// reset in place, reusing its storage; for any other w, nil included, a
// bare one is allocated. A replay world never rebuilds its topology, so it
// has no grid, mover fleet, second topology buffer or incremental engine
// state.
func (t *Trajectory) replayInto(w *World, dec *trajDecoder) *World {
	n := t.n
	if w == nil || w.traj == nil || w.N() != n {
		w = &World{
			pos:       make([]geom.Point, n),
			radios:    make([]radio.Radio, n),
			isGateway: make([]bool, n),
			topo:      graph.New(n),
		}
	}
	s := &t.snap
	w.arena, w.step, w.dynamic = s.Arena, t.start, t.dynamic
	copy(w.pos, s.Positions)
	for i, r := range s.Ranges {
		w.radios[i] = radio.New(r)
	}
	// The snapshot lists the recorded world's gateways, each once.
	clear(w.isGateway)
	w.gateways = append(w.gateways[:0], s.Gateways...)
	for _, g := range s.Gateways {
		w.isGateway[g] = true
	}
	// Replay edits rows surgically, so they are node-owned (with slack), as
	// the incremental engine keeps its own.
	w.topo.CopyOwned(t.links, 8)
	if f := &t.faults; !f.on {
		w.flt = nil
	} else {
		// setFaultMasks reuses the masks a reset world kept.
		partX := 0.0
		if s.PartitionX != nil {
			partX = *s.PartitionX
		}
		if err := w.setFaultMasks(s.Dead, s.DownGateways, s.PartitionX != nil, partX); err != nil {
			// The snapshot was taken from a world of this size.
			panic(fmt.Sprintf("network: %v starting a replay world", err))
		}
		wf := w.flt
		wf.sched, wf.epoch, wf.lastEvents = f.sched, f.epoch, f.lastEvents
		wf.injectedTotal, wf.recoveredTotal = f.injected, f.recovered
	}
	w.deltas.reset(0)
	w.m = worldMetrics{}
	dec.reset(t)
	w.traj = dec
	return w
}

// ---------------------------------------------------------------------------
// Recording

// TrajectoryRecorder captures a live world's per-step churn into a
// Trajectory. It only observes — it never mutates the world or consumes RNG
// — so recording cannot perturb a seeded run. Protocol:
//
//	rec := NewTrajectoryRecorder(w) // world at its start state
//	for i := 0; i < steps; i++ { w.Step(); rec.AfterStep() }
//	traj := rec.Finish()
//
// Replay worlds built from the tape before Finish read each step as soon
// as AfterStep publishes it (see Lookahead).
type TrajectoryRecorder struct {
	df    worldDiffer
	codec *trace.DeltaCodec
	t     *Trajectory

	gap int // empty steps since the last emitted record

	prevInjected, prevRecovered uint64

	keys                   []uint64 // sort scratch: u<<32 | v
	addU, addV, remU, remV []int32
}

// NewTrajectoryRecorder starts recording w. The world's current state
// becomes the trajectory's start, so construct the recorder before the
// first Step.
func NewTrajectoryRecorder(w *World) *TrajectoryRecorder {
	r := &TrajectoryRecorder{}
	r.reset(w, new(Trajectory))
	return r
}

// reset starts recording w onto the tape t, reusing the recorder's
// buffers and t's. No reader may still be reading t.
func (r *TrajectoryRecorder) reset(w *World, t *Trajectory) {
	n := w.N()
	r.df.reset(w)
	if r.codec == nil {
		r.codec = trace.NewDeltaCodec(n)
	} else {
		r.codec.Reset()
	}
	t.cond.L = &t.mu
	t.n, t.dynamic, t.start = n, w.dynamic, w.step
	w.SnapshotInto(&t.snap)
	if t.links == nil || t.links.N() != n {
		t.links = graph.New(n)
	}
	t.links.CopyOwned(w.topo, 8)
	t.faults = startFaults{}
	if f := w.flt; f != nil {
		t.faults = startFaults{on: true, sched: f.sched, epoch: f.epoch, lastEvents: f.lastEvents,
			injected: f.injectedTotal, recovered: f.recoveredTotal}
	}
	t.topo, t.geom, t.steps, t.records = t.topo[:0], t.geom[:0], 0, 0
	t.publish(false, nil)
	r.t, r.gap = t, 0
	r.prevInjected, r.prevRecovered = t.faults.injected, t.faults.recovered
}

// sortPairs returns the edges (us[i], vs[i]) sorted by (u, v), written
// into the lanes du, dv (reused).
func (r *TrajectoryRecorder) sortPairs(us, vs []NodeID, du, dv []int32) ([]int32, []int32) {
	r.keys = r.keys[:0]
	for i := range us {
		r.keys = append(r.keys, uint64(us[i])<<32|uint64(vs[i]))
	}
	slices.Sort(r.keys)
	du, dv = du[:0], dv[:0]
	for _, k := range r.keys {
		du = append(du, int32(k>>32))
		dv = append(dv, int32(uint32(k)))
	}
	return du, dv
}

// AfterStep records the delta between the world's previous and current
// state, the edge churn being the world's WatchTopology stream for the
// step, and publishes it to readers. Call immediately after every
// World.Step.
func (r *TrajectoryRecorder) AfterStep() {
	r.record()
	r.t.publish(false, nil)
}

func (r *TrajectoryRecorder) record() {
	t := r.t
	t.steps++
	if w := r.df.w; w.step != t.start+t.steps {
		panic(fmt.Sprintf("network: TrajectoryRecorder.AfterStep call %d follows world step %d: it must follow every Step",
			t.steps, w.step-t.start))
	}
	// The topology is a function of positions, ranges and fault state, so
	// a step that changed none of them changed no edge either.
	if !r.df.diff() {
		r.gap++
		return
	}
	e := &r.df.w.deltas
	r.addU, r.addV = r.sortPairs(e.AddU, e.AddV, r.addU, r.addV)
	r.remU, r.remV = r.sortPairs(e.RemU, e.RemV, r.remU, r.remV)
	d := &r.df.d
	head := uint64(r.gap) << 1
	if d.FaultChanged {
		head |= 1
	}
	r.gap = 0
	t.topo = binary.AppendUvarint(t.topo, head)
	t.topo = trajAppendPairs(t.topo, r.addU, r.addV)
	t.topo = trajAppendPairs(t.topo, r.remU, r.remV)
	if d.FaultChanged {
		t.topo = trajAppendIDs(t.topo, d.Dead)
		t.topo = trajAppendIDs(t.topo, d.DownGateways)
		if d.Partition {
			t.topo = binary.LittleEndian.AppendUint64(append(t.topo, 1), math.Float64bits(d.PartitionX))
		} else {
			t.topo = append(t.topo, 0)
		}
		var injected, recovered uint64
		if f := r.df.w.flt; f != nil {
			injected = f.injectedTotal - r.prevInjected
			recovered = f.recoveredTotal - r.prevRecovered
			r.prevInjected, r.prevRecovered = f.injectedTotal, f.recoveredTotal
		}
		t.topo = binary.AppendUvarint(t.topo, injected)
		t.topo = binary.AppendUvarint(t.topo, recovered)
	}
	t.geom = r.codec.Append(t.geom, trace.WorldDelta{Nodes: d.Nodes, X: d.X, Y: d.Y, RangeNodes: d.RangeNodes, Ranges: d.Ranges})
	t.records++
}

// Finish seals and returns the trajectory. The recorder must not be used
// afterwards.
func (r *TrajectoryRecorder) Finish() *Trajectory {
	r.t.publish(true, nil)
	return r.t
}

// fail seals the tape at the steps recorded so far and makes every reader
// that needs a later step fail with err instead of waiting for it.
func (r *TrajectoryRecorder) fail(err error) {
	r.t.publish(true, err)
}

// RecordTrajectory steps w `steps` times, recording every delta, and
// returns the sealed trajectory.
func RecordTrajectory(w *World, steps int) (*Trajectory, error) {
	if steps < 0 {
		return nil, fmt.Errorf("network: trajectory steps must be non-negative, got %d", steps)
	}
	rec := NewTrajectoryRecorder(w)
	for i := 0; i < steps; i++ {
		w.Step()
		rec.AfterStep()
	}
	return rec.Finish(), nil
}

// TrajectorySource records a trajectory at most once and hands out
// independent replay worlds — RunMany's worldFor shape. The record phase is
// sync.Once-guarded, so concurrent sweep points and parallel replications
// share one recording safely.
type TrajectorySource struct {
	steps int
	sched *faults.Schedule
	build func() (*World, error)

	once sync.Once
	traj *Trajectory
	err  error
}

// NewTrajectorySource prepares a lazy record-once source: the first
// WorldFor (or Trajectory) call builds a live world via build, attaches
// sched (if any), records steps steps, and caches the result.
//
// anchorEvery is ignored: trajectories store no snapshot anchors.
func NewTrajectorySource(steps, anchorEvery int, sched *faults.Schedule, build func() (*World, error)) *TrajectorySource {
	return &TrajectorySource{steps: steps, sched: sched, build: build}
}

// Trajectory returns the recorded trajectory, recording it on first call.
func (s *TrajectorySource) Trajectory() (*Trajectory, error) {
	s.once.Do(func() {
		w, err := s.build()
		if err != nil {
			s.err = err
			return
		}
		if s.sched != nil {
			w.SetFaults(s.sched)
		}
		s.traj, s.err = RecordTrajectory(w, s.steps)
	})
	return s.traj, s.err
}

// WorldFor returns a fresh replay world per call (the run index is unused —
// every replication replays the same environment, as the paper prescribes).
func (s *TrajectorySource) WorldFor(int) (*World, error) {
	t, err := s.Trajectory()
	if err != nil {
		return nil, err
	}
	return t.World()
}

// ---------------------------------------------------------------------------
// Replay

// stepFromTrajectory advances a replay world one step by applying the next
// topology record — O(edge changes), no mobility RNG, no disc scans, no
// grid. The record's geometry stays pending until a geometry read catches
// up (syncGeometry). Step dispatches here for replay worlds, once the
// cursor's await has made sure the tape covers the step.
func (w *World) stepFromTrajectory() {
	c := w.traj
	has, err := c.next()
	if err != nil {
		// Only a TrajectoryRecorder writes the stream and nothing mutates
		// it afterwards, so a decode error is a bug, not bad input.
		panic(fmt.Sprintf("network: %v during replay at step %d", err, c.rel))
	}
	if !has {
		return
	}
	// Recorded pairs are the exact diff, fault steps included, so the
	// stream stays exact on replay worlds too.
	for i := range c.addU {
		u, v := NodeID(c.addU[i]), NodeID(c.addV[i])
		w.topo.InsertEdgeSorted(u, v)
		w.deltas.add(u, v)
	}
	for i := range c.remU {
		u, v := NodeID(c.remU[i]), NodeID(c.remV[i])
		w.topo.RemoveEdgeSorted(u, v)
		w.deltas.remove(u, v)
	}
	if c.fault {
		w.applyTrajFault(c)
	}
}

// syncGeometry brings a replay world's positions and ranges up to its
// step by decoding the geometry records its steps left pending. Every read
// of w.pos or w.radios goes through it first; on other worlds it does
// nothing. Like Step, it is not safe for concurrent use.
func (w *World) syncGeometry() {
	if c := w.traj; c != nil && c.applied < c.stepped {
		w.catchUpGeometry()
	}
}

func (w *World) catchUpGeometry() {
	if err := w.traj.applyGeometry(w.pos, w.radios); err != nil {
		// As in stepFromTrajectory: only a recorder writes the stream.
		panic(fmt.Sprintf("network: %v replaying geometry at step %d", err, w.step))
	}
}

// applyTrajFault installs the fault-epoch transition c has just decoded:
// the full masks replace the current ones (records carry absolute state,
// so replay needs no event semantics), and the faults_* instruments
// advance by the recorded injected/recovered counts — identical to the
// live counters.
func (w *World) applyTrajFault(c *trajDecoder) {
	if err := w.setFaultMasks(c.dead, c.down, c.partition, c.partX); err != nil {
		// Only a TrajectoryRecorder writes the stream, from a world of the
		// same size, so a node that is no gateway here is a bug, not bad
		// input.
		panic(fmt.Sprintf("network: %v during replay at step %d", err, w.step))
	}
	f := w.flt
	f.epoch++
	f.injectedTotal += c.injected
	f.recoveredTotal += c.recovered
	// LastFaultEvents comes from the schedule the harness attached; replay
	// itself never consults it for state.
	f.lastEvents = f.sched.At(w.step)
	w.m.faultsInjected.Add(c.injected)
	w.m.faultsRecovered.Add(c.recovered)
	w.m.faultsNodesDown.Set(float64(len(c.dead)))
}

// trajDecoder is a replay world's cursor over a tape: it walks the
// topology records one step at a time, and decodes the geometry bodies of
// the records it has passed when a geometry read asks for them. It reads
// only the part of the tape it has seen published.
type trajDecoder struct {
	t    *Trajectory
	view tapeView      // the tape as last published to this cursor
	pos  int           // read offset into view.topo
	rel  int           // steps consumed so far
	read *atomic.Int64 // when set, rel is published here (Lookahead's schedule)
	at   int           // step of the next record once its gap is read; 0 = unread
	last int           // step of the last decoded record; 0 before the first

	// The topology record last decoded.
	addU, addV          []int32
	remU, remV          []int32
	fault               bool // a fault record: the fields below are set
	dead, down          []NodeID
	partition           bool
	partX               float64
	injected, recovered uint64

	// Geometry: the bodies of the first stepped records, of which the
	// first applied are decoded.
	stepped, applied int
	gpos             int               // read offset into view.geom
	codec            *trace.DeltaCodec // made by the first geometry read
	codecN           int               // the node count codec was made for
	g                trace.WorldDelta
}

// reset points the cursor at the start of t, keeping its buffers.
func (d *trajDecoder) reset(t *Trajectory) {
	d.t, d.view = t, t.view()
	d.pos, d.rel, d.at, d.last = 0, 0, 0, 0
	d.stepped, d.applied, d.gpos = 0, 0, 0
	if d.codec != nil && d.codecN == t.n {
		d.codec.Reset()
	} else {
		d.codec = nil
	}
}

// applyGeometry decodes the pending geometry bodies in order, writing the
// moved positions into pos and the changed ranges into radios.
func (d *trajDecoder) applyGeometry(pos []geom.Point, radios []radio.Radio) error {
	if d.codec == nil {
		d.codec, d.codecN = trace.NewWorldDeltaCodec(d.t.n), d.t.n
	}
	g := &d.g
	for d.applied < d.stepped {
		k, err := d.codec.Decode(d.view.geom[d.gpos:], g)
		if err != nil {
			return err
		}
		d.gpos += k
		if g.FaultChanged {
			return trajCorrupt("geometry record %d carries fault state", d.applied+1)
		}
		for i, u := range g.Nodes {
			pos[u] = geom.Point{X: g.X[i], Y: g.Y[i]}
		}
		for i, u := range g.RangeNodes {
			radios[u] = radio.New(g.Ranges[i])
		}
		d.applied++
	}
	return nil
}

// await makes sure the tape covers the next step, waiting for the
// recorder when this cursor has caught up with it. It fails when the tape
// ends first.
func (d *trajDecoder) await() error {
	if d.rel < d.view.steps {
		return nil
	}
	d.view = d.t.await(d.rel + 1)
	if d.rel < d.view.steps {
		return nil
	}
	if d.view.err != nil {
		return d.view.err
	}
	return fmt.Errorf("trajectory exhausted: world stepped past the %d recorded steps", d.view.steps)
}

// next consumes one step, which await has shown the tape covers: it
// reports whether this step carries a record (its topology decoded into
// the cursor's fields, its geometry left pending) or is empty.
func (d *trajDecoder) next() (bool, error) {
	d.rel++
	if d.read != nil {
		d.read.Store(int64(d.rel))
	}
	if d.at == 0 {
		if d.pos >= len(d.view.topo) {
			// Every published record is decoded and the published part
			// covers this step, so the step is empty. (A gap is written
			// only with the record that ends it: an unfinished tape
			// whose bytes run out may still hold a record for a later
			// step, so this holds for covered steps only.)
			return false, nil
		}
		head, err := d.uvarint()
		if err != nil {
			return false, err
		}
		// The record must fall on this step or a later published one.
		g := head >> 1
		if g >= uint64(d.view.steps) || d.last+int(g)+1 < d.rel || d.last+int(g)+1 > d.view.steps {
			return false, trajCorrupt("step gap %d after step %d misses the published steps %d..%d", g, d.last, d.rel, d.view.steps)
		}
		d.at = d.last + int(g) + 1
		d.fault = head&1 == 1
	}
	if d.rel < d.at {
		return false, nil
	}
	d.last, d.at = d.at, 0
	return true, d.decodeRecord()
}

// decodeRecord decodes the topology part of the record at the cursor and
// leaves its geometry body pending.
func (d *trajDecoder) decodeRecord() error {
	n := d.t.n
	var err error
	if d.addU, d.addV, err = d.pairs(d.addU[:0], d.addV[:0], n); err != nil {
		return err
	}
	if d.remU, d.remV, err = d.pairs(d.remU[:0], d.remV[:0], n); err != nil {
		return err
	}
	d.stepped++
	if !d.fault {
		return nil
	}
	if d.dead, err = d.ids(d.dead[:0], n); err != nil {
		return err
	}
	if d.down, err = d.ids(d.down[:0], n); err != nil {
		return err
	}
	if d.pos >= len(d.view.topo) {
		return trajCorrupt("truncated fault record at step %d", d.rel)
	}
	switch flag := d.view.topo[d.pos]; flag {
	case 0:
		d.partition, d.partX = false, 0
		d.pos++
	case 1:
		if d.pos+9 > len(d.view.topo) {
			return trajCorrupt("truncated partition cut at step %d", d.rel)
		}
		d.partition = true
		d.partX = math.Float64frombits(binary.LittleEndian.Uint64(d.view.topo[d.pos+1:]))
		d.pos += 9
	default:
		return trajCorrupt("bad partition flag %d at step %d", flag, d.rel)
	}
	if d.injected, err = d.uvarint(); err != nil {
		return err
	}
	d.recovered, err = d.uvarint()
	return err
}

func trajCorrupt(format string, args ...any) error {
	return fmt.Errorf("network: trajectory: "+format+": %w", append(args, trace.ErrCorrupt)...)
}

func (d *trajDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.view.topo[d.pos:])
	if n <= 0 {
		return 0, trajCorrupt("truncated varint at byte %d", d.pos)
	}
	d.pos += n
	return v, nil
}

// trajAppendPairs writes an edge list sorted by (u, v) as a count plus
// (du, dv) gaps; dv restarts from zero whenever u advances.
func trajAppendPairs(b []byte, us, vs []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(us)))
	prevU, prevV := int32(0), int32(0)
	for i := range us {
		u, v := us[i], vs[i]
		du := u - prevU
		if du > 0 {
			prevV = 0
		}
		b = binary.AppendUvarint(b, uint64(du))
		b = binary.AppendUvarint(b, uint64(v-prevV))
		prevU, prevV = u, v
	}
	return b
}

// pairs decodes an edge list sorted by (u, v), rejecting self-loops,
// duplicates, and out-of-range endpoints.
func (d *trajDecoder) pairs(us, vs []int32, n int) ([]int32, []int32, error) {
	count, err := d.uvarint()
	if err != nil {
		return us, vs, err
	}
	if count > uint64(n)*uint64(n) {
		return us, vs, trajCorrupt("edge list of %d entries exceeds n² at step %d", count, d.rel)
	}
	prevU, prevV := int64(0), int64(0)
	first := true
	for i := uint64(0); i < count; i++ {
		du, err := d.uvarint()
		if err != nil {
			return us, vs, err
		}
		dv, err := d.uvarint()
		if err != nil {
			return us, vs, err
		}
		if du >= uint64(n) || dv >= uint64(n) {
			return us, vs, trajCorrupt("edge delta (%d,%d) exceeds the %d nodes at step %d", du, dv, n, d.rel)
		}
		u := prevU + int64(du)
		if du > 0 {
			prevV = 0
		} else if !first && dv == 0 {
			return us, vs, trajCorrupt("edge list not strictly ascending at step %d", d.rel)
		}
		v := prevV + int64(dv)
		if u >= int64(n) || v >= int64(n) {
			return us, vs, trajCorrupt("edge %d→%d out of range [0,%d) at step %d", u, v, n, d.rel)
		}
		if u == v {
			return us, vs, trajCorrupt("self-loop %d→%d at step %d", u, v, d.rel)
		}
		us = append(us, int32(u))
		vs = append(vs, int32(v))
		prevU, prevV = u, v
		first = false
	}
	return us, vs, nil
}

// trajAppendIDs writes an ascending node ID list as a count plus the first
// ID and then the gaps between IDs.
func trajAppendIDs(b []byte, ids []NodeID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	prev := NodeID(0)
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id-prev))
		prev = id
	}
	return b
}

// ids decodes a node ID list written by trajAppendIDs, rejecting one that
// is not strictly ascending or leaves the n nodes.
func (d *trajDecoder) ids(dst []NodeID, n int) ([]NodeID, error) {
	count, err := d.uvarint()
	if err != nil {
		return dst, err
	}
	if count > uint64(n) {
		return dst, trajCorrupt("node list of %d entries exceeds the %d nodes at step %d", count, n, d.rel)
	}
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		gap, err := d.uvarint()
		if err != nil {
			return dst, err
		}
		if gap >= uint64(n) || (i > 0 && gap == 0) || prev+gap >= uint64(n) {
			return dst, trajCorrupt("node list not ascending within [0,%d) at step %d", n, d.rel)
		}
		prev += gap
		dst = append(dst, NodeID(prev))
	}
	return dst, nil
}
