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
// publishes the bytes written so far and the number of steps they cover;
// it only ever appends, so readers keep reading what they were handed
// while it writes on. A replay world that catches up with the recorder
// waits until the step it needs is published or the tape is finished. It
// calls a step empty only once the published part covers that step: a
// gap is written together with the record that ends it, so running out
// of bytes on an unfinished tape says nothing about the steps beyond the
// published count. Lookahead (lookahead.go) builds on this to step a live
// world on a helper goroutine while a routing run replays it.
//
// Wire format for Trajectory.data — a sequence of records, one per step
// that changed anything, each:
//
//	uvarint gap       empty steps preceding this record
//	body              trace.DeltaCodec: moved positions, changed ranges,
//	                  and on fault epochs the complete fault state
//	pairs adds        edges that appeared (see trajAppendPairs)
//	pairs removes     edges that vanished
//	uvarint injected  fault records only: the faults_* counter advances
//	uvarint recovered
//
// Trailing empty steps carry no bytes at all (the step count bounds them).
// The body's float lanes form one predictor chain over the whole tape,
// exactly as in a binary log between two anchors.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/trace"
)

// Trajectory is a recorded world evolution: the start state and the
// delta-coded churn stream. Readers may replay it while the recorder is
// still writing it: each World() call gets its own decode cursor, which
// reads only what the recorder has published. After Finish it is
// immutable and safe to share across any number of replay worlds.
type Trajectory struct {
	n       int
	dynamic bool
	snap    Snapshot // start state

	// Written by the recorder alone; readers see them through pub.
	data    []byte
	steps   int
	records int

	mu   sync.Mutex
	cond sync.Cond // broadcast on every publish; L is &mu
	pub  tapeView  // guarded by mu
}

// tapeView is what readers see of a tape: a prefix of its bytes that ends
// on a record boundary, the steps that prefix covers, and whether the
// recorder has finished (or failed).
type tapeView struct {
	data    []byte
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
	t.pub = tapeView{data: t.data, steps: t.steps, records: t.records, done: done, err: err}
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
// Every Step on it applies the next recorded delta instead of running
// mobility, decay, or topology maintenance; a Step the recorder has not
// published yet waits for it, and stepping past a finished tape panics.
// Worlds from the same Trajectory are independent (the shared data is read
// only), so concurrent replications are race-free.
func (t *Trajectory) World() (*World, error) {
	return t.world(&trajDecoder{})
}

// world is World with a caller-owned cursor, whose buffers it reuses.
func (t *Trajectory) world(dec *trajDecoder) (*World, error) {
	w, err := t.snap.World()
	if err != nil {
		return nil, err
	}
	// The snapshot build aliases adjacency rows in one flat CSR array;
	// replay mutates rows surgically, so migrate them to owned storage
	// once, exactly as the incremental engine does.
	w.topo.OwnRows(8)
	// Replay worlds observe like the recorded one: Dynamic() must agree so
	// callers (and re-recording) see the same world shape. The dispatch in
	// Step routes every call to the trajectory before any dynamic branch.
	w.dynamic = t.dynamic
	dec.reset(t)
	w.traj = dec
	return w, nil
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

	start int // world step the recording starts from
	gap   int // empty steps since the last emitted record

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
	t.n, t.dynamic = n, w.dynamic
	w.SnapshotInto(&t.snap)
	t.data, t.steps, t.records = t.data[:0], 0, 0
	t.publish(false, nil)
	r.t, r.start, r.gap = t, w.step, 0
	r.prevInjected, r.prevRecovered = 0, 0
	if f := w.flt; f != nil {
		r.prevInjected, r.prevRecovered = f.injectedTotal, f.recoveredTotal
	}
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
	if w := r.df.w; w.step != r.start+t.steps {
		panic(fmt.Sprintf("network: TrajectoryRecorder.AfterStep call %d follows world step %d: it must follow every Step",
			t.steps, w.step-r.start))
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
	t.data = binary.AppendUvarint(t.data, uint64(r.gap))
	r.gap = 0
	t.data = r.codec.Append(t.data, *d)
	t.data = trajAppendPairs(t.data, r.addU, r.addV)
	t.data = trajAppendPairs(t.data, r.remU, r.remV)
	if d.FaultChanged {
		var injected, recovered uint64
		if f := r.df.w.flt; f != nil {
			injected = f.injectedTotal - r.prevInjected
			recovered = f.recoveredTotal - r.prevRecovered
			r.prevInjected, r.prevRecovered = f.injectedTotal, f.recoveredTotal
		}
		t.data = binary.AppendUvarint(t.data, injected)
		t.data = binary.AppendUvarint(t.data, recovered)
	}
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
// recorded delta — O(changes), no mobility RNG, no disc scans, no grid.
// Step dispatches here for worlds built by Trajectory.World, once the
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
	d := &c.d
	for i, u := range d.Nodes {
		w.pos[u] = geom.Point{X: d.X[i], Y: d.Y[i]}
	}
	for i, u := range d.RangeNodes {
		w.radios[u] = radio.New(d.Ranges[i])
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
	if d.FaultChanged {
		w.applyTrajFault(d, c.injected, c.recovered)
	}
}

// TrajectoryRemaining returns how many recorded steps are left to replay —
// on a tape still being recorded, how many are published and not yet
// replayed; 0 for worlds without an attached trajectory.
func (w *World) TrajectoryRemaining() int {
	if w.traj == nil {
		return 0
	}
	return w.traj.t.Steps() - w.traj.rel
}

// applyTrajFault installs one recorded fault-epoch transition: the full
// masks replace the current ones (records carry absolute state, so replay
// needs no event semantics), and the faults_* instruments advance by the
// recorded injected/recovered counts — identical to the live counters.
func (w *World) applyTrajFault(d *trace.WorldDelta, injected, recovered uint64) {
	if err := w.setFaultMasks(d.Dead, d.DownGateways, d.Partition, d.PartitionX); err != nil {
		// Only a TrajectoryRecorder writes the stream, from a world of the
		// same size, so an out-of-range ID is a bug, not bad input.
		panic(fmt.Sprintf("network: %v during replay at step %d", err, w.step))
	}
	f := w.flt
	f.epoch++
	f.injectedTotal += injected
	f.recoveredTotal += recovered
	// LastFaultEvents comes from the schedule the harness attached; replay
	// itself never consults it for state.
	f.lastEvents = f.sched.At(w.step)
	w.m.faultsInjected.Add(injected)
	w.m.faultsRecovered.Add(recovered)
	w.m.faultsNodesDown.Set(float64(len(d.Dead)))
}

// trajDecoder is a replay world's cursor over the delta stream: it walks
// the records one step at a time, decoding bodies with its own
// trace.DeltaCodec, and reads only the part of the tape it has seen
// published.
type trajDecoder struct {
	t    *Trajectory
	view tapeView // the tape as last published to this cursor
	pos  int      // read offset into view.data
	rel  int      // steps consumed so far
	at   int      // step of the next record once its gap is read; 0 = unread
	last int      // step of the last decoded record; 0 before the first

	codec               *trace.DeltaCodec
	d                   trace.WorldDelta
	addU, addV          []int32
	remU, remV          []int32
	injected, recovered uint64
}

// reset points the cursor at the start of t, keeping its buffers.
func (d *trajDecoder) reset(t *Trajectory) {
	d.t, d.view = t, t.view()
	d.pos, d.rel, d.at, d.last = 0, 0, 0, 0
	if d.codec == nil {
		d.codec = trace.NewDeltaCodec(t.n)
	} else {
		d.codec.Reset()
	}
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
// reports whether this step carries a record (decoded into the cursor's
// fields) or is empty.
func (d *trajDecoder) next() (bool, error) {
	d.rel++
	if d.at == 0 {
		if d.pos >= len(d.view.data) {
			// Every published record is decoded and the published part
			// covers this step, so the step is empty. (A gap is written
			// only with the record that ends it: an unfinished tape
			// whose bytes run out may still hold a record for a later
			// step, so this holds for covered steps only.)
			return false, nil
		}
		g, err := d.uvarint()
		if err != nil {
			return false, err
		}
		// The record must fall on this step or a later published one.
		if g >= uint64(d.view.steps) || d.last+int(g)+1 < d.rel || d.last+int(g)+1 > d.view.steps {
			return false, trajCorrupt("step gap %d after step %d misses the published steps %d..%d", g, d.last, d.rel, d.view.steps)
		}
		d.at = d.last + int(g) + 1
	}
	if d.rel < d.at {
		return false, nil
	}
	d.last, d.at = d.at, 0
	return true, d.decodeRecord()
}

func (d *trajDecoder) decodeRecord() error {
	k, err := d.codec.Decode(d.view.data[d.pos:], &d.d)
	if err != nil {
		return err
	}
	d.pos += k
	n := d.t.n
	if d.addU, d.addV, err = d.pairs(d.addU[:0], d.addV[:0], n); err != nil {
		return err
	}
	if d.remU, d.remV, err = d.pairs(d.remU[:0], d.remV[:0], n); err != nil {
		return err
	}
	if !d.d.FaultChanged {
		return nil
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
	v, n := binary.Uvarint(d.view.data[d.pos:])
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
