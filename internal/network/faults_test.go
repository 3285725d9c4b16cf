package network

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/rng"
)

// buildFaultWorld builds a mixed dynamic world (half static, half
// random-velocity, a third battery-decaying) with the given gateways —
// the planned-world recipe of the incremental tests, parameterised on the
// gateway set so gateway-failure schedules have targets.
func buildFaultWorld(t testing.TB, n int, gateways []NodeID, seed uint64) *World {
	t.Helper()
	s := rng.New(seed)
	box := geom.Square(100)
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := 0; i < n; i++ {
		pos[i] = geom.Point{X: s.Range(0, 100), Y: s.Range(0, 100)}
		base := s.Range(8, 16)
		if i%3 == 0 {
			radios[i] = radio.NewBattery(base, 0.002, 0.5)
		} else {
			radios[i] = radio.New(base)
		}
		if i%2 == 0 {
			movers[i] = mobility.Static{}
		} else {
			movers[i] = mobility.NewRandomVelocity(box, 0.5, 3, s.Child(uint64(i)))
		}
	}
	w, err := NewWorld(Config{
		Arena: box, Positions: pos, Radios: radios, Movers: movers,
		Gateways: gateways,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// bruteForceFaultTopology is the O(n²) fault-aware referee: dead nodes
// contribute and receive no links, and an active partition suppresses
// every link crossing the cut.
func bruteForceFaultTopology(w *World) *graph.Directed {
	n := w.N()
	g := graph.New(n)
	cutX, partActive := w.Partition()
	for u := 0; u < n; u++ {
		if !w.Alive(NodeID(u)) {
			continue
		}
		r := w.radios[u].Range()
		if r <= 0 {
			continue
		}
		r2 := r * r
		for v := 0; v < n; v++ {
			if v == u || !w.Alive(NodeID(v)) {
				continue
			}
			if partActive && (w.pos[u].X >= cutX) != (w.pos[v].X >= cutX) {
				continue
			}
			if w.pos[v].Dist2(w.pos[u]) <= r2 {
				g.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	g.SortAdjacency()
	return g
}

// faultSchedules returns the fault workloads the equivalence tests drive:
// every preset plan plus a hand-scripted schedule that exercises all eight
// event kinds, including respawn-elsewhere revivals and overlapping
// windows.
func faultSchedules(n int, gateways []NodeID, steps int) map[string]*faults.Schedule {
	out := make(map[string]*faults.Schedule)
	for _, name := range faults.PresetNames() {
		s, err := faults.Preset(name, n, gateways, steps, 99)
		if err != nil {
			panic(err)
		}
		out["preset-"+name] = s
	}
	out["scripted-all-kinds"] = faults.NewSchedule([]faults.Event{
		{Step: 10, Kind: faults.NodeDown, Node: 5},
		{Step: 10, Kind: faults.NodeDown, Node: 7},
		{Step: 12, Kind: faults.RadioDegrade, Node: 9, Factor: 0.4},
		{Step: 15, Kind: faults.GatewayDown, Node: gateways[0]},
		{Step: 20, Kind: faults.PartitionStart, Factor: 0.5},
		{Step: 25, Kind: faults.NodeUp, Node: 5, Respawn: true, RX: 0.9, RY: 0.1},
		{Step: 30, Kind: faults.PartitionEnd},
		{Step: 32, Kind: faults.GatewayUp, Node: gateways[0]},
		{Step: 35, Kind: faults.RadioRestore, Node: 9},
		{Step: 40, Kind: faults.NodeUp, Node: 7},
	})
	return out
}

// TestFaultedEnginesMatch is the fault-equivalence gate: under every fault
// workload, the incremental and full-rebuild stepping paths must
// produce bit-identical topologies, alive masks, and gateway sets at every
// step, and all must match the fault-aware brute-force referee.
func TestFaultedEnginesMatch(t *testing.T) {
	const n, steps = 120, 120
	gateways := []NodeID{0, 40, 80}
	for name, sched := range faultSchedules(n, gateways, steps) {
		t.Run(name, func(t *testing.T) {
			inc := buildFaultWorld(t, n, gateways, 3)
			full := buildFaultWorld(t, n, gateways, 3)
			full.SetFullRebuild(true)
			for _, w := range []*World{inc, full} {
				w.SetFaults(sched)
			}
			fired := 0
			for step := 0; step < steps; step++ {
				inc.Step()
				full.Step()
				if inc.FaultEpoch() != full.FaultEpoch() {
					t.Fatalf("step %d: fault epochs diverge: %d/%d",
						step+1, inc.FaultEpoch(), full.FaultEpoch())
				}
				fired = inc.FaultEpoch()
				if inc.AliveCount() != full.AliveCount() {
					t.Fatalf("step %d: alive counts diverge: %d/%d",
						step+1, inc.AliveCount(), full.AliveCount())
				}
				if ga, gb := fmt.Sprint(inc.Gateways()), fmt.Sprint(full.Gateways()); ga != gb {
					t.Fatalf("step %d: gateway sets diverge: %s vs %s", step+1, ga, gb)
				}
				if diff, ok := sameTopology(inc.Topology(), full.Topology()); !ok {
					t.Fatalf("step %d: incremental vs full rebuild: %s", step+1, diff)
				}
				if step%10 == 0 || step == steps-1 {
					if diff, ok := sameTopology(inc.Topology(), bruteForceFaultTopology(inc)); !ok {
						t.Fatalf("step %d: incremental vs brute force: %s", step+1, diff)
					}
				}
			}
			if fired == 0 {
				t.Fatal("schedule fired no events — equivalence is vacuous")
			}
		})
	}
}

// TestPartitionSuppressesCrossLinks checks the structural partition
// property directly: while the cut is active no link crosses it, and after
// PartitionEnd cross links reappear.
func TestPartitionSuppressesCrossLinks(t *testing.T) {
	const n = 150
	sched := faults.NewSchedule([]faults.Event{
		{Step: 5, Kind: faults.PartitionStart, Factor: 0.5},
		{Step: 40, Kind: faults.PartitionEnd},
	})
	w := buildFaultWorld(t, n, []NodeID{0}, 17)
	w.SetFaults(sched)
	crossLinks := func() int {
		cut := w.arena.MinX + 0.5*w.arena.Width()
		cnt := 0
		for u := 0; u < n; u++ {
			for _, v := range w.Topology().Out(NodeID(u)) {
				if (w.pos[u].X >= cut) != (w.pos[v].X >= cut) {
					cnt++
				}
			}
		}
		return cnt
	}
	sawCrossBefore := false
	for step := 0; step < 60; step++ {
		w.Step()
		c := crossLinks()
		_, active := w.Partition()
		switch {
		case step+1 < 5:
			sawCrossBefore = sawCrossBefore || c > 0
		case active && c != 0:
			t.Fatalf("step %d: %d links cross the active partition", step+1, c)
		}
		if step+1 >= 5 && step+1 < 40 && !active {
			t.Fatalf("step %d: partition should be active", step+1)
		}
	}
	if !sawCrossBefore {
		t.Skip("world never had cross links — cannot witness suppression")
	}
	if crossLinks() == 0 {
		t.Error("cross links did not return after PartitionEnd")
	}
}

// TestDegenerateWorlds pins the zero-gateway / zero-alive guards: the
// connectivity measure returns 0 instead of dividing by nothing, and
// stepping an all-dead world neither panics nor resurrects anyone.
func TestDegenerateWorlds(t *testing.T) {
	t.Run("no-gateways", func(t *testing.T) {
		w := buildFaultWorld(t, 30, nil, 5)
		if got := w.ConnectivityToGateways(); got != 0 {
			t.Fatalf("zero-gateway connectivity = %v, want 0", got)
		}
		w.Step() // must not panic
	})
	t.Run("all-gateways-down", func(t *testing.T) {
		evs := []faults.Event{{Step: 1, Kind: faults.GatewayDown, Node: 0}}
		w := buildFaultWorld(t, 30, []NodeID{0}, 5)
		w.SetFaults(faults.NewSchedule(evs))
		w.Step()
		if len(w.Gateways()) != 0 {
			t.Fatalf("gateways still in service: %v", w.Gateways())
		}
		if got := w.ConnectivityToGateways(); got != 0 {
			t.Fatalf("connectivity with all gateways down = %v, want 0", got)
		}
	})
	t.Run("all-nodes-dead", func(t *testing.T) {
		const n = 20
		evs := make([]faults.Event, n)
		for i := range evs {
			evs[i] = faults.Event{Step: 1, Kind: faults.NodeDown, Node: NodeID(i)}
		}
		w := buildFaultWorld(t, n, []NodeID{0}, 5)
		w.SetFaults(faults.NewSchedule(evs))
		w.Step()
		if w.AliveCount() != 0 {
			t.Fatalf("alive count = %d, want 0", w.AliveCount())
		}
		if got := w.ConnectivityToGateways(); got != 0 {
			t.Fatalf("connectivity of dead world = %v, want 0", got)
		}
		if m := w.Topology().M(); m != 0 {
			t.Fatalf("dead world still has %d links", m)
		}
		for i := 0; i < 5; i++ {
			w.Step() // must not panic with zero alive nodes
		}
	})
}

// TestDeadNodesFreeze pins the lifecycle semantics: a dead mobile node
// stays exactly where it died, and on revival (without respawn) resumes
// from that position with its RNG stream intact — so a twin world whose
// node never died but was frozen over the same window agrees bit for bit.
func TestDeadNodesFreeze(t *testing.T) {
	const victim = 1 // odd ids are random-velocity movers
	sched := faults.NewSchedule([]faults.Event{
		{Step: 5, Kind: faults.NodeDown, Node: victim},
		{Step: 25, Kind: faults.NodeUp, Node: victim},
	})
	w := buildFaultWorld(t, 40, []NodeID{0}, 23)
	w.SetFaults(sched)
	var frozen geom.Point
	for step := 1; step <= 40; step++ {
		w.Step()
		if step == 5 {
			frozen = w.pos[victim]
		}
		if step > 5 && step <= 24 {
			if w.Alive(victim) {
				t.Fatalf("step %d: victim should be dead", step)
			}
			if w.pos[victim] != frozen {
				t.Fatalf("step %d: dead node moved from %v to %v", step, frozen, w.pos[victim])
			}
			if got := len(w.Topology().Out(victim)); got != 0 {
				t.Fatalf("step %d: dead node has %d out-links", step, got)
			}
		}
		if step >= 25 && !w.Alive(victim) {
			t.Fatalf("step %d: victim should be revived", step)
		}
	}
	if w.pos[victim] == frozen {
		t.Error("revived mover never moved again")
	}
}

// TestFaultedSnapshotRoundTrip restores a world mid-fault (dead nodes, a
// downed gateway, an active partition) and demands the restored world be
// bit-identical — same topology, masks, and gateway set — and, after
// re-attaching the schedule, step forward in lockstep with the original.
func TestFaultedSnapshotRoundTrip(t *testing.T) {
	const n, steps = 100, 60
	gateways := []NodeID{0, 50}
	sched := faults.NewSchedule([]faults.Event{
		{Step: 5, Kind: faults.NodeDown, Node: 3},
		{Step: 8, Kind: faults.NodeDown, Node: 11},
		{Step: 10, Kind: faults.GatewayDown, Node: 50},
		{Step: 12, Kind: faults.PartitionStart, Factor: 0.4},
		{Step: 30, Kind: faults.PartitionEnd},
		{Step: 35, Kind: faults.NodeUp, Node: 3},
		{Step: 40, Kind: faults.GatewayUp, Node: 50},
	})
	w := buildFaultWorld(t, n, gateways, 31)
	w.SetFaults(sched)
	for i := 0; i < 20; i++ { // stop mid-partition with faults live
		w.Step()
	}
	snap := w.Snapshot()
	if snap.Version != SnapshotVersion {
		t.Fatalf("snapshot version = %d, want %d", snap.Version, SnapshotVersion)
	}
	if len(snap.Dead) != 2 || len(snap.DownGateways) != 1 || snap.PartitionX == nil {
		t.Fatalf("fault state not captured: dead=%v gwDown=%v partX=%v",
			snap.Dead, snap.DownGateways, snap.PartitionX)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	restored, err := back.World()
	if err != nil {
		t.Fatal(err)
	}
	if diff, ok := sameTopology(w.Topology(), restored.Topology()); !ok {
		t.Fatalf("restored topology differs: %s", diff)
	}
	if restored.AliveCount() != w.AliveCount() {
		t.Fatalf("restored alive count %d, want %d", restored.AliveCount(), w.AliveCount())
	}
	if ga, gb := fmt.Sprint(w.Gateways()), fmt.Sprint(restored.Gateways()); ga != gb {
		t.Fatalf("restored gateway set %s, want %s", gb, ga)
	}
	cutA, actA := w.Partition()
	cutB, actB := restored.Partition()
	if actA != actB || cutA != cutB {
		t.Fatalf("restored partition (%v,%v), want (%v,%v)", cutB, actB, cutA, actA)
	}
	// Resume the schedule on two independent restores (restored worlds are
	// static, and their step counters restart, so both replay the schedule
	// from the top — already-applied events no-op): the remaining events
	// and every topology must replay bit-identically.
	resumed, err := back.World()
	if err != nil {
		t.Fatal(err)
	}
	cont, err := w.Snapshot().World()
	if err != nil {
		t.Fatal(err)
	}
	resumed.SetFaults(sched)
	cont.SetFaults(sched)
	for i := 20; i < steps; i++ {
		resumed.Step()
		cont.Step()
		if diff, ok := sameTopology(resumed.Topology(), cont.Topology()); !ok {
			t.Fatalf("resumed step %d: %s", i+1, diff)
		}
		if resumed.AliveCount() != cont.AliveCount() {
			t.Fatalf("resumed step %d: alive %d vs %d", i+1, resumed.AliveCount(), cont.AliveCount())
		}
	}
	if _, active := resumed.Partition(); active {
		t.Error("partition still active after PartitionEnd replay")
	}
}

// TestSnapshotVersionRejected pins the future-version guard.
func TestSnapshotVersionRejected(t *testing.T) {
	w := buildFaultWorld(t, 10, []NodeID{0}, 1)
	snap := w.Snapshot()
	snap.Version = SnapshotVersion + 1
	if _, err := snap.World(); err == nil {
		t.Fatal("future snapshot version accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("unhelpful version error: %v", err)
	}
}

// TestFaultCountersPinned pins the faults_* instruments for one schedule —
// and, run with an un-instrumented twin, that attaching the registry does
// not perturb the seeded topology (instrumentation sits outside every RNG
// path).
func TestFaultCountersPinned(t *testing.T) {
	const n, steps = 60, 50
	sched := faults.NewSchedule([]faults.Event{
		{Step: 5, Kind: faults.NodeDown, Node: 2},
		{Step: 5, Kind: faults.NodeDown, Node: 4},
		{Step: 10, Kind: faults.GatewayDown, Node: 0},
		{Step: 20, Kind: faults.NodeUp, Node: 2},
		{Step: 30, Kind: faults.GatewayUp, Node: 0},
	})
	instrumented := buildFaultWorld(t, n, []NodeID{0}, 77)
	plain := buildFaultWorld(t, n, []NodeID{0}, 77)
	reg := metrics.NewRegistry()
	instrumented.Instrument(reg)
	instrumented.SetFaults(sched)
	plain.SetFaults(sched)
	for i := 0; i < steps; i++ {
		instrumented.Step()
		plain.Step()
	}
	if diff, ok := sameTopology(instrumented.Topology(), plain.Topology()); !ok {
		t.Fatalf("instrumentation perturbed the topology: %s", diff)
	}
	if got := reg.Counter("faults_injected_total").Value(); got != 3 {
		t.Errorf("faults_injected_total = %d, want 3", got)
	}
	if got := reg.Counter("faults_recovered_total").Value(); got != 2 {
		t.Errorf("faults_recovered_total = %d, want 2", got)
	}
	if got := reg.Gauge("faults_nodes_down").Value(); got != 1 {
		t.Errorf("faults_nodes_down = %v, want 1 (node 4 still dead)", got)
	}
}
