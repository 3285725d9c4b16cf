package network

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// sameWorldState compares every observable the harnesses read: topology,
// alive mask, gateway set, fault epoch, partition, positions, and ranges.
func sameWorldState(t *testing.T, step int, live, rep *World) {
	t.Helper()
	if diff, ok := sameTopology(live.Topology(), rep.Topology()); !ok {
		t.Fatalf("step %d: replay topology diverges: %s", step, diff)
	}
	if live.AliveCount() != rep.AliveCount() {
		t.Fatalf("step %d: alive %d vs %d", step, live.AliveCount(), rep.AliveCount())
	}
	if live.FaultEpoch() != rep.FaultEpoch() {
		t.Fatalf("step %d: epoch %d vs %d", step, live.FaultEpoch(), rep.FaultEpoch())
	}
	if ga, gb := fmt.Sprint(live.Gateways()), fmt.Sprint(rep.Gateways()); ga != gb {
		t.Fatalf("step %d: gateways %s vs %s", step, ga, gb)
	}
	cutA, actA := live.Partition()
	cutB, actB := rep.Partition()
	if actA != actB || cutA != cutB {
		t.Fatalf("step %d: partition (%v,%v) vs (%v,%v)", step, cutA, actA, cutB, actB)
	}
	for u := 0; u < live.N(); u++ {
		id := NodeID(u)
		if live.IsGateway(id) != rep.IsGateway(id) || live.Alive(id) != rep.Alive(id) || live.NeedsGateway(id) != rep.NeedsGateway(id) {
			t.Fatalf("step %d: node %d gateway/alive/needs-gateway %v/%v/%v vs %v/%v/%v", step, u,
				live.IsGateway(id), live.Alive(id), live.NeedsGateway(id), rep.IsGateway(id), rep.Alive(id), rep.NeedsGateway(id))
		}
		if live.Pos(id) != rep.Pos(id) {
			t.Fatalf("step %d: node %d at %v vs %v", step, u, live.Pos(id), rep.Pos(id))
		}
		if lr, rr := live.Radio(id).Range(), rep.Radio(id).Range(); lr != rr {
			t.Fatalf("step %d: node %d range %v vs %v", step, u, lr, rr)
		}
	}
}

// TestTrajectoryReplayMatchesLive is the tentpole equivalence gate: under
// every fault preset, the scripted all-kinds schedule, and a clean dynamic
// run, a replayed trajectory must match live stepping bit for bit at every
// step.
func TestTrajectoryReplayMatchesLive(t *testing.T) {
	const n, steps = 120, 120
	gateways := []NodeID{0, 40, 80}
	scheds := faultSchedules(n, gateways, steps)
	scheds["clean"] = nil
	for name, sched := range scheds {
		t.Run(name, func(t *testing.T) {
			recWorld := buildFaultWorld(t, n, gateways, 3)
			if sched != nil {
				recWorld.SetFaults(sched)
			}
			traj, err := RecordTrajectory(recWorld, steps)
			if err != nil {
				t.Fatal(err)
			}
			if traj.Steps() != steps {
				t.Fatalf("trajectory covers %d steps, want %d", traj.Steps(), steps)
			}
			live := buildFaultWorld(t, n, gateways, 3)
			if sched != nil {
				live.SetFaults(sched)
			}
			rep, err := traj.World()
			if err != nil {
				t.Fatal(err)
			}
			if sched != nil {
				rep.SetFaults(sched)
			}
			if rep.Dynamic() != live.Dynamic() {
				t.Fatalf("replay world dynamic=%v, live=%v", rep.Dynamic(), live.Dynamic())
			}
			for step := 1; step <= steps; step++ {
				live.Step()
				rep.Step()
				sameWorldState(t, step, live, rep)
			}
			if rem := trajectoryRemaining(rep); rem != 0 {
				t.Fatalf("%d recorded steps remain after full replay, want 0", rem)
			}
			if sched != nil && live.FaultEpoch() == 0 {
				t.Fatal("schedule fired no events — equivalence is vacuous")
			}
		})
	}
}

// trajectoryRemaining returns how many recorded steps are left for the
// replay world w to replay: on a tape still being recorded, how many are
// published and not yet replayed.
func trajectoryRemaining(w *World) int {
	return w.traj.t.Steps() - w.traj.rel
}

// refTape records w over steps the way TrajectoryRecorder did before it
// read the WatchTopology stream: it keeps a private CSR copy of the
// topology and merge-diffs every node's sorted out-list against it after
// each changed step. It is the referee the stream-fed tape is pinned to
// byte for byte. It writes the two-stream layout the tape has had since
// replay worlds decode geometry only when it is read, and returns the
// topology stream, the geometry stream and the record count.
func refTape(w *World, steps int) (topo, geometry []byte, records int) {
	n := w.N()
	df := newWorldDiffer(w)
	codec := trace.NewDeltaCodec(n)
	var prevInjected, prevRecovered uint64
	if f := w.flt; f != nil {
		prevInjected, prevRecovered = f.injectedTotal, f.recoveredTotal
	}
	var prevOff []int32
	var prevDst []NodeID
	captureTopo := func() {
		prevOff = append(prevOff[:0], 0)
		prevDst = prevDst[:0]
		for u := 0; u < n; u++ {
			prevDst = append(prevDst, w.topo.Out(NodeID(u))...)
			prevOff = append(prevOff, int32(len(prevDst)))
		}
	}
	var addU, addV, remU, remV []int32
	diffTopo := func() {
		addU, addV, remU, remV = addU[:0], addV[:0], remU[:0], remV[:0]
		for u := 0; u < n; u++ {
			prev := prevDst[prevOff[u]:prevOff[u+1]]
			cur := w.topo.Out(NodeID(u))
			i, j := 0, 0
			for i < len(prev) && j < len(cur) {
				switch {
				case prev[i] == cur[j]:
					i++
					j++
				case prev[i] < cur[j]:
					remU, remV = append(remU, int32(u)), append(remV, int32(prev[i]))
					i++
				default:
					addU, addV = append(addU, int32(u)), append(addV, int32(cur[j]))
					j++
				}
			}
			for ; i < len(prev); i++ {
				remU, remV = append(remU, int32(u)), append(remV, int32(prev[i]))
			}
			for ; j < len(cur); j++ {
				addU, addV = append(addU, int32(u)), append(addV, int32(cur[j]))
			}
		}
	}
	captureTopo()
	gap := 0
	for i := 0; i < steps; i++ {
		w.Step()
		if !df.diff() {
			gap++
			continue
		}
		diffTopo()
		d := df.d
		fault := uint64(0)
		if d.FaultChanged {
			fault = 1
		}
		topo = binary.AppendUvarint(topo, uint64(gap)<<1|fault)
		gap = 0
		topo = trajAppendPairs(topo, addU, addV)
		topo = trajAppendPairs(topo, remU, remV)
		if len(addU) > 0 || len(remU) > 0 {
			captureTopo()
		}
		if d.FaultChanged {
			topo = trajAppendIDs(topo, d.Dead)
			topo = trajAppendIDs(topo, d.DownGateways)
			topo = append(topo, 0)
			if d.Partition {
				topo[len(topo)-1] = 1
				topo = binary.LittleEndian.AppendUint64(topo, math.Float64bits(d.PartitionX))
			}
			var injected, recovered uint64
			if f := w.flt; f != nil {
				injected, recovered = f.injectedTotal-prevInjected, f.recoveredTotal-prevRecovered
				prevInjected, prevRecovered = f.injectedTotal, f.recoveredTotal
			}
			topo = binary.AppendUvarint(topo, injected)
			topo = binary.AppendUvarint(topo, recovered)
		}
		d.FaultChanged = false
		geometry = codec.Append(geometry, d)
		records++
	}
	return topo, geometry, records
}

// TestTrajectoryTapeMatchesDiffReferee pins the recorder's tape, whose
// edge churn comes from the world's edge-change stream, byte for byte to
// the full-diff referee's — clean and under every fault workload, on both
// live stepping engines.
func TestTrajectoryTapeMatchesDiffReferee(t *testing.T) {
	const n, steps = 120, 150
	gateways := []NodeID{0, 40, 80}
	scheds := faultSchedules(n, gateways, steps)
	scheds["clean"] = nil
	for name, sched := range scheds {
		for _, full := range []bool{false, true} {
			engine := map[bool]string{false: "incremental", true: "rebuild"}[full]
			t.Run(name+"/"+engine, func(t *testing.T) {
				build := func() *World {
					w := buildFaultWorld(t, n, gateways, 3)
					w.SetFaults(sched)
					w.SetFullRebuild(full)
					return w
				}
				traj, err := RecordTrajectory(build(), steps)
				if err != nil {
					t.Fatal(err)
				}
				topo, geometry, records := refTape(build(), steps)
				if !bytes.Equal(traj.topo, topo) {
					t.Fatalf("topology stream (%d bytes) differs from the referee's (%d bytes)", len(traj.topo), len(topo))
				}
				if !bytes.Equal(traj.geom, geometry) {
					t.Fatalf("geometry stream (%d bytes) differs from the referee's (%d bytes)", len(traj.geom), len(geometry))
				}
				if traj.Records() != records {
					t.Fatalf("tape holds %d records, referee %d", traj.Records(), records)
				}
				if records == 0 {
					t.Fatal("vacuous: no records")
				}
			})
		}
	}
}

// TestTrajectoryReplayCounters pins the instrument parity: a replay world
// with a registry attached reports the same faults_* and link-churn
// counters as the live run.
func TestTrajectoryReplayCounters(t *testing.T) {
	const n, steps = 80, 80
	gateways := []NodeID{0, 30}
	sched, err := faults.Preset("blackout", n, gateways, steps, 99)
	if err != nil {
		t.Fatal(err)
	}
	recWorld := buildFaultWorld(t, n, gateways, 7)
	recWorld.SetFaults(sched)
	traj, err := RecordTrajectory(recWorld, steps)
	if err != nil {
		t.Fatal(err)
	}
	run := func(w *World) *metrics.Registry {
		reg := metrics.NewRegistry()
		w.Instrument(reg)
		w.SetFaults(sched)
		for i := 0; i < steps; i++ {
			w.Step()
		}
		return reg
	}
	liveReg := run(buildFaultWorld(t, n, gateways, 7))
	rep, err := traj.World()
	if err != nil {
		t.Fatal(err)
	}
	repReg := run(rep)
	for _, c := range []string{"faults_injected_total", "faults_recovered_total", "world_steps_total"} {
		if lv, rv := liveReg.Counter(c).Value(), repReg.Counter(c).Value(); lv != rv {
			t.Errorf("%s: live %d vs replay %d", c, lv, rv)
		}
	}
	if lv, rv := liveReg.Gauge("faults_nodes_down").Value(), repReg.Gauge("faults_nodes_down").Value(); lv != rv {
		t.Errorf("faults_nodes_down: live %v vs replay %v", lv, rv)
	}
	if lv, rv := liveReg.Gauge("world_edges").Value(), repReg.Gauge("world_edges").Value(); lv != rv {
		t.Errorf("world_edges: live %v vs replay %v", lv, rv)
	}
	// Live full-rebuild churn counting and the replay's recorded churn must
	// agree (the incremental engine pins the same equality to the rebuild
	// diff in its own tests).
	for _, c := range []string{"world_links_added_total", "world_links_removed_total"} {
		if lv, rv := liveReg.Counter(c).Value(), repReg.Counter(c).Value(); lv != rv {
			t.Errorf("%s: live %d vs replay %d", c, lv, rv)
		}
	}
}

// TestTrajectoryStaticWorld checks the static fast path: a static faulted
// world records only its fault epochs (everything else is gap-coded), and
// the replay still matches live stepping.
func TestTrajectoryStaticWorld(t *testing.T) {
	const n, steps = 60, 200
	gateways := []NodeID{0, 20}
	// A snapshot restore yields a fully static twin: same positions and
	// ranges, static movers.
	snap := buildFaultWorld(t, n, gateways, 9).Snapshot()
	staticWorld := func() *World {
		w, err := snap.World()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	sched := faults.NewSchedule([]faults.Event{
		{Step: 20, Kind: faults.NodeDown, Node: 5},
		{Step: 60, Kind: faults.PartitionStart, Factor: 0.5},
		{Step: 120, Kind: faults.PartitionEnd},
		{Step: 150, Kind: faults.NodeUp, Node: 5, Respawn: true, RX: 0.25, RY: 0.75},
	})
	recWorld := staticWorld()
	recWorld.SetFaults(sched)
	traj, err := RecordTrajectory(recWorld, steps)
	if err != nil {
		t.Fatal(err)
	}
	if traj.Dynamic() {
		t.Fatal("static world recorded as dynamic")
	}
	if traj.Records() != sched.Len() && traj.Records() > 4 {
		t.Fatalf("static trajectory holds %d records for 4 fault epochs", traj.Records())
	}
	live := staticWorld()
	live.SetFaults(sched)
	rep, err := traj.World()
	if err != nil {
		t.Fatal(err)
	}
	rep.SetFaults(sched)
	for step := 1; step <= steps; step++ {
		live.Step()
		rep.Step()
		sameWorldState(t, step, live, rep)
	}
}

// TestTrajectoryExhaustionPanics pins the horizon contract.
func TestTrajectoryExhaustionPanics(t *testing.T) {
	w := buildFaultWorld(t, 30, []NodeID{0}, 5)
	traj, err := RecordTrajectory(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := traj.World()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rep.Step()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stepping past the trajectory horizon did not panic")
		}
	}()
	rep.Step()
}

// TestTrajectoryCompact pins the tape's size on two fixed dynamic worlds
// against what the format measured before it adopted trace.DeltaCodec, so
// a change that trades the predictor lanes for plain values (~6x larger)
// fails here. The bounds are those earlier sizes.
func TestTrajectoryCompact(t *testing.T) {
	gateways := []NodeID{0, 40, 80}
	churn, err := faults.Preset("churn", 120, gateways, 300, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		world func() *World
		max   int
	}{
		{"alloc-n=500", func() *World { return buildAllocWorld(t, 500) }, 228695},
		{"fault-n=120/churn", func() *World {
			w := buildFaultWorld(t, 120, gateways, 3)
			w.SetFaults(churn)
			return w
		}, 134222},
	} {
		traj, err := RecordTrajectory(tc.world(), 300)
		if err != nil {
			t.Fatal(err)
		}
		size := len(traj.topo) + len(traj.geom)
		t.Logf("%s: %d bytes (topology %d, geometry %d) over %d records", tc.name, size, len(traj.topo), len(traj.geom), traj.Records())
		if size > tc.max {
			t.Errorf("%s: trajectory holds %d bytes, more than the %d-byte bound", tc.name, size, tc.max)
		}
	}
}

// TestTrajectorySourceRecordsOnce drives one TrajectorySource from many
// goroutines (the -race CI gates catch unsynchronised recording) and checks
// the build function ran exactly once while every world replays the same
// trajectory.
func TestTrajectorySourceRecordsOnce(t *testing.T) {
	const n, steps, workers = 60, 50, 8
	var builds atomic.Int32
	src := NewTrajectorySource(steps, 0, nil, func() (*World, error) {
		builds.Add(1)
		return buildFaultWorld(t, n, []NodeID{0}, 11), nil
	})
	snaps := make([]Snapshot, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w, err := src.WorldFor(slot)
			if err != nil {
				t.Error(err)
				return
			}
			for s := 0; s < steps; s++ {
				w.Step()
			}
			snaps[slot] = w.Snapshot()
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	for i := 1; i < workers; i++ {
		if !reflect.DeepEqual(snaps[0], snaps[i]) {
			t.Fatalf("worker %d replayed a different world", i)
		}
	}
}

// collectSink records anchors and deltas for the StepRecorder tests.
type collectSink struct {
	anchorSteps []int
	anchors     [][]byte
	deltas      []trace.WorldDelta
}

func (s *collectSink) Emit(trace.Event) {}
func (s *collectSink) EmitAnchor(step int, snap []byte) {
	s.anchorSteps = append(s.anchorSteps, step)
	s.anchors = append(s.anchors, append([]byte(nil), snap...))
}
func (s *collectSink) EmitWorld(d trace.WorldDelta) {
	c := d
	c.Nodes = append([]int32(nil), d.Nodes...)
	c.X = append([]float64(nil), d.X...)
	c.Y = append([]float64(nil), d.Y...)
	c.RangeNodes = append([]int32(nil), d.RangeNodes...)
	c.Ranges = append([]float64(nil), d.Ranges...)
	c.Dead = append([]int32(nil), d.Dead...)
	c.DownGateways = append([]int32(nil), d.DownGateways...)
	s.deltas = append(s.deltas, c)
}

// TestStepRecorderAnchorEveryOne pins the densest anchor cadence: with
// AnchorEvery=1 the recorder must anchor before every harness step, each
// anchor must equal the world's snapshot at that instant, and every
// non-empty world step must still emit exactly one delta labeled step+1.
func TestStepRecorderAnchorEveryOne(t *testing.T) {
	const steps = 25
	w := buildFaultWorld(t, 50, []NodeID{0}, 19)
	sink := &collectSink{}
	rec := NewStepRecorder(w, sink, 1)
	if rec == nil {
		t.Fatal("recorder is nil for a non-nil sink")
	}
	want := make(map[int][]byte)
	for step := 0; step < steps; step++ {
		b, err := json.Marshal(w.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		want[step] = b
		rec.BeforeStep(step)
		w.Step()
		rec.AfterWorldStep()
	}
	if len(sink.anchorSteps) != steps {
		t.Fatalf("got %d anchors, want one per step (%d)", len(sink.anchorSteps), steps)
	}
	for i, step := range sink.anchorSteps {
		if step != i {
			t.Fatalf("anchor %d labeled step %d", i, step)
		}
		if !bytes.Equal(sink.anchors[i], want[step]) {
			t.Fatalf("anchor at step %d does not match the world snapshot", step)
		}
	}
	// A dynamic world moves every step here, so the deltas must cover steps
	// 1..steps in order.
	if len(sink.deltas) != steps {
		t.Fatalf("got %d deltas, want %d", len(sink.deltas), steps)
	}
	for i, d := range sink.deltas {
		if d.Step != i+1 {
			t.Fatalf("delta %d labeled step %d, want %d", i, d.Step, i+1)
		}
	}
}

// sameStart compares a replay world with the world its tape started from:
// everything sameWorldState compares, plus the step count, the fault
// masks, the last fault events and the fault counters.
func sameStart(t *testing.T, name string, live, rep *World) {
	t.Helper()
	if live.StepCount() != rep.StepCount() {
		t.Fatalf("%s: replay world at step %d, recorded world at %d", name, rep.StepCount(), live.StepCount())
	}
	sameWorldState(t, live.StepCount(), live, rep)
	lf, rf := live.flt, rep.flt
	if !reflect.DeepEqual(lf.dead, rf.dead) || !reflect.DeepEqual(lf.gwDown, rf.gwDown) {
		t.Fatalf("%s: fault masks differ from the recorded world's", name)
	}
	if got, want := fmt.Sprint(rep.LastFaultEvents()), fmt.Sprint(live.LastFaultEvents()); got != want {
		t.Fatalf("%s: last fault events %s, recorded %s", name, got, want)
	}
	if rf.injectedTotal != lf.injectedTotal || rf.recoveredTotal != lf.recoveredTotal {
		t.Fatalf("%s: fault counters %d/%d, recorded %d/%d", name,
			rf.injectedTotal, rf.recoveredTotal, lf.injectedTotal, lf.recoveredTotal)
	}
}

// TestTrajectoryWorldMatchesRecordedStart pins the one way replay worlds
// are made: a fresh one from Trajectory.World and one a warm Lookahead
// resets in place both equal the recorded world at the tape's start. The
// tapes start mid-run, on a step where faults fired: on a churn-faulted
// world with nodes down, and on one whose partition is active, so the
// step count, masks, epoch, last events and counters are none of them the
// zero state.
func TestTrajectoryWorldMatchesRecordedStart(t *testing.T) {
	const n = 90
	gateways := []NodeID{0, 30, 60}
	schedules := faultSchedules(n, gateways, 200)
	for _, tc := range []struct {
		name  string
		sched *faults.Schedule
		ready func(w *World) bool
	}{
		{"churn", schedules["preset-churn"], func(w *World) bool {
			return w.AliveCount() < n && len(w.LastFaultEvents()) > 0 && w.flt.recoveredTotal > 0
		}},
		{"partition", schedules["preset-partition"], func(w *World) bool {
			_, active := w.Partition()
			return active && len(w.LastFaultEvents()) > 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Three twins stepped alike: the referee, the world a tape is
			// recorded from, and the world a Lookahead runs ahead.
			var twins [3]*World
			for i := range twins {
				twins[i] = buildFaultWorld(t, n, gateways, 8)
				twins[i].SetFaults(tc.sched)
			}
			ref, recorded, live := twins[0], twins[1], twins[2]
			for !tc.ready(ref) {
				if ref.StepCount() == 200 {
					t.Fatal("the schedule never reached the state the tape should start from")
				}
				for _, w := range twins {
					w.Step()
				}
			}
			traj, err := RecordTrajectory(recorded, 0)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := traj.World()
			if err != nil {
				t.Fatal(err)
			}
			sameStart(t, "fresh replay world", ref, fresh)

			// A run on a clean world of the same size warms the Lookahead;
			// the next Start resets its replay world in place. The helper
			// is held back until the comparison is done.
			var a Lookahead
			first, started := a.Start(buildFaultWorld(t, n, gateways, 3), 5, goSpawn, nil)
			if !started {
				t.Fatal("the warm-up run started no helper")
			}
			for i := 0; i < 5; i++ {
				first.Step()
			}
			a.Stop()
			var helper func()
			reused, started := a.Start(live, 1, func(f func()) bool { helper = f; return true }, nil)
			if !started || reused != first {
				t.Fatalf("Start = %p, %v, want the kept replay world %p", reused, started, first)
			}
			sameStart(t, "reused replay world", ref, reused)
			helper()
			a.Stop()
		})
	}
}
