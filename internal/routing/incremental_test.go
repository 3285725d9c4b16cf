package routing

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/rng"
)

// meterSchedules returns the fault workloads the measurement-equivalence
// tests drive: every preset, a scripted schedule firing every event kind,
// and the clean run.
func meterSchedules(t *testing.T, steps int) map[string]*faults.Schedule {
	t.Helper()
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*faults.Schedule{"clean": nil}
	for _, name := range faults.PresetNames() {
		s, err := faults.Preset(name, w.N(), w.Gateways(), steps, 4242)
		if err != nil {
			t.Fatal(err)
		}
		out["preset-"+name] = s
	}
	gw := w.Gateways()[0]
	out["scripted-all-kinds"] = faults.NewSchedule([]faults.Event{
		{Step: 10, Kind: faults.NodeDown, Node: 5},
		{Step: 10, Kind: faults.NodeDown, Node: 7},
		{Step: 12, Kind: faults.RadioDegrade, Node: 9, Factor: 0.4},
		{Step: 15, Kind: faults.GatewayDown, Node: gw},
		{Step: 20, Kind: faults.PartitionStart, Factor: 0.5},
		{Step: 25, Kind: faults.NodeUp, Node: 5, Respawn: true, RX: 0.9, RY: 0.1},
		{Step: 30, Kind: faults.PartitionEnd},
		{Step: 32, Kind: faults.GatewayUp, Node: gw},
		{Step: 35, Kind: faults.RadioRestore, Node: 9},
		{Step: 40, Kind: faults.NodeUp, Node: 7},
	})
	return out
}

// scratchQuad is the reference measurement: the four metrics computed from
// scratch by the package's reference functions.
func scratchQuad(w *network.World, ts *Tables, s *Scratch, step int) Measurement {
	return Measurement{
		Local:     LocalConnectivity(w, ts),
		EndToEnd:  s.Connectivity(w, ts),
		Ideal:     w.ConnectivityToGateways(),
		Staleness: Staleness(w, ts, step),
	}
}

// runChecked runs sc on w with an Observer that recomputes the scratch
// quadruple right after every step's measurement, and fails unless the
// run's four series match it bit for bit: a per-step referee that does not
// depend on the Meter.
func runChecked(t *testing.T, w *network.World, sc Scenario, seed uint64) Result {
	t.Helper()
	var scratch Scratch
	var want []Measurement
	sc.Observer = func(step int, w *network.World, ts *Tables) {
		want = append(want, scratchQuad(w, ts, &scratch, step))
	}
	res, err := Run(w, sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(res.Connectivity) {
		t.Fatalf("observer saw %d steps, run measured %d", len(want), len(res.Connectivity))
	}
	for i, q := range want {
		got := Measurement{
			Local: res.Connectivity[i], EndToEnd: res.EndToEnd[i],
			Ideal: res.Ideal[i], Staleness: res.Staleness[i],
		}
		if got != q {
			t.Fatalf("first divergence at step %d:\nrun     %+v\nscratch %+v", i, got, q)
		}
	}
	return res
}

// TestMeterMatchesFullMeasure is the measurement acceptance gate: every
// per-step series value a run reports must be bit-identical to the
// scratch quadruple at that step, under every fault workload and every
// stepping engine.
func TestMeterMatchesFullMeasure(t *testing.T) {
	const steps = 100
	engines := map[string]bool{"incremental": false, "rebuild": true}
	for sname, sched := range meterSchedules(t, steps) {
		for ename, rebuild := range engines {
			t.Run(sname+"/"+ename, func(t *testing.T) {
				w, err := netgen.Generate(testSpec(), 11)
				if err != nil {
					t.Fatal(err)
				}
				w.SetFullRebuild(rebuild)
				sc := Scenario{
					Agents: 25, Communicate: true, Steps: steps, MeasureFrom: 30,
					Faults: sched,
				}
				runChecked(t, w, sc, 99)
			})
		}
	}
}

// TestMeterRunManyGrids checks the meter through both batch runners at
// every worker setting. The baseline is independent of the Meter: each run
// goes through Run with RunMany's seed derivation and the per-step scratch
// referee, and the checked results reduce to the expected aggregate.
func TestMeterRunManyGrids(t *testing.T) {
	const steps, runs = 80, 3
	sched := testFaultSchedule(t, steps)
	base := Scenario{
		Agents: 25, Communicate: true, Steps: steps, MeasureFrom: 30,
		Faults: sched,
	}
	results := make([]Result, runs)
	for r := range results {
		w, err := netgen.Generate(testSpec(), 11)
		if err != nil {
			t.Fatal(err)
		}
		results[r] = runChecked(t, w, base, rng.DeriveSeed(99, uint64(r)))
	}
	want := aggregate(results)
	for _, rw := range []int{1, 4} {
		sc := base
		sc.RunWorkers = rw
		got, err := RunMany(freshWorld(11), sc, runs, 99)
		if err != nil {
			t.Fatalf("runworkers=%d: %v", rw, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("runworkers=%d: aggregate diverges from the scratch-checked baseline", rw)
		}
	}
	cached, err := RunManyCached(func() (*network.World, error) { return netgen.Generate(testSpec(), 11) }, base, runs, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, want) {
		t.Error("RunManyCached (trajectory replay) aggregate diverges from the scratch-checked baseline")
	}
}

// TestMeterIdealReplay runs the meter over a trajectory-replay world: the
// recorded delta stream is exact, so the ideal bound must equal
// ConnectivityToGateways at every step, replayed fault steps included, and
// a repeated same-step Measure must not move it.
func TestMeterIdealReplay(t *testing.T) {
	const steps = 100
	for sname, sched := range meterSchedules(t, steps) {
		t.Run(sname, func(t *testing.T) {
			rec, err := netgen.Generate(testSpec(), 11)
			if err != nil {
				t.Fatal(err)
			}
			if sched != nil {
				rec.SetFaults(sched)
			}
			traj, err := network.RecordTrajectory(rec, steps)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := traj.World()
			if err != nil {
				t.Fatal(err)
			}
			if sched != nil {
				rep.SetFaults(sched)
			}
			meter := NewMeter(rep, NewTables(rep.N(), 1))
			for step := 0; step < steps; step++ {
				got := meter.Measure(step).Ideal
				if want := rep.ConnectivityToGateways(); got != want {
					t.Fatalf("step %d: meter ideal %v, scratch %v", step, got, want)
				}
				if again := meter.Measure(step).Ideal; again != got {
					t.Fatalf("step %d: repeated measure changed the ideal: %v vs %v", step, again, got)
				}
				rep.Step()
			}
		})
	}
}

// TestMeterResetRebinds reuses one meter across two worlds of different
// sizes, as the pooled harness state does: after Reset every mirror and
// both forests must size to the new world.
func TestMeterResetRebinds(t *testing.T) {
	small := testSpec()
	small.N, small.TargetEdges, small.Gateways = 60, 420, 3
	var meter Meter
	for i, spec := range []netgen.Spec{testSpec(), small} {
		w, err := netgen.Generate(spec, 17)
		if err != nil {
			t.Fatal(err)
		}
		n, gws := w.N(), w.Gateways()
		ts := NewTables(n, 2)
		meter.Reset(w, ts)
		var scratch Scratch
		s := rng.New(uint64(i) + 3)
		for step := 0; step < 30; step++ {
			for k := 0; k < 8; k++ {
				ts.Update(NodeID(s.Intn(n)), network.Entry{
					Gateway: gws[s.Intn(len(gws))], NextHop: NodeID(s.Intn(n)),
					Hops: 1 + s.Intn(9), Updated: step,
				})
			}
			if got, want := meter.Measure(step), scratchQuad(w, ts, &scratch, step); got != want {
				t.Fatalf("world %d (n=%d) step %d: meter %+v, scratch %+v", i, n, step, got, want)
			}
			w.Step()
		}
	}
}

// TestMeterSkippedStepsResync pins the degradation path: a consumer that
// misses steps (measures every 7th) cannot trust the one-step delta buffer
// and must fall back to a recompute, still bit-identical.
func TestMeterSkippedStepsResync(t *testing.T) {
	const steps = 120
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	n, gws := w.N(), w.Gateways()
	ts := NewTables(n, 2)
	meter := NewMeter(w, ts)
	var scratch Scratch
	s := rng.New(9)
	for step := 0; step < steps; step++ {
		ts.Update(NodeID(s.Intn(n)), network.Entry{
			Gateway: gws[s.Intn(len(gws))], NextHop: NodeID(s.Intn(n)),
			Hops: 1 + s.Intn(9), Updated: step,
		})
		if step%7 == 0 {
			if got, want := meter.Measure(step), scratchQuad(w, ts, &scratch, step); got != want {
				t.Fatalf("step %d: meter %+v, scratch %+v", step, got, want)
			}
		}
		w.Step()
	}
	if meter.Resyncs() < steps/7 {
		t.Fatalf("Resyncs() = %d, want one per skipped-step measure (~%d)", meter.Resyncs(), steps/7)
	}
}

// TestMeterPropertyRandomMutations is the satellite property test: the
// meter is driven outside the harness by arbitrary interleavings of table
// Updates, DropIf purges, world steps, fault epochs, and skipped
// measurements — and must match the scratch quadruple at every probe.
func TestMeterPropertyRandomMutations(t *testing.T) {
	const steps = 150
	for _, seed := range []uint64{1, 7, 20260808} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, err := netgen.Generate(testSpec(), 11)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := faults.Preset("blackout", w.N(), w.Gateways(), steps, seed)
			if err != nil {
				t.Fatal(err)
			}
			w.SetFaults(sched)
			n := w.N()
			gws := w.Gateways()
			ts := NewTables(n, 3)
			meter := NewMeter(w, ts)
			var scratch Scratch
			s := rng.New(seed)
			for step := 0; step < steps; step++ {
				writes := s.Intn(40)
				for i := 0; i < writes; i++ {
					u := NodeID(s.Intn(n))
					ts.Update(u, network.Entry{
						Gateway: gws[s.Intn(len(gws))],
						NextHop: NodeID(s.Intn(n)),
						Hops:    1 + s.Intn(9),
						Updated: step - s.Intn(4),
					})
				}
				if s.Intn(10) == 0 {
					hops := 1 + s.Intn(9)
					for u := 0; u < n; u++ {
						ts.DropIf(NodeID(u), func(e network.Entry) bool { return e.Hops >= hops })
					}
				}
				// Occasionally skip a step's measurement entirely, forcing
				// the missed-step resync path.
				if s.Intn(8) != 0 {
					got := meter.Measure(step)
					want := scratchQuad(w, ts, &scratch, step)
					if got != want {
						t.Fatalf("step %d: meter %+v, scratch %+v", step, got, want)
					}
				}
				w.Step()
			}
			if meter.Resyncs() >= steps {
				t.Fatal("meter resynced every step — incremental path never exercised")
			}
		})
	}
}

// TestMeterStaysIncremental pins the control flow on a clean run: with no
// faults and a measurement every step, the meter must resync exactly once.
func TestMeterStaysIncremental(t *testing.T) {
	const steps = 120
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	n := w.N()
	gws := w.Gateways()
	ts := NewTables(n, 2)
	meter := NewMeter(w, ts)
	s := rng.New(5)
	for step := 0; step < steps; step++ {
		for i := 0; i < 10; i++ {
			ts.Update(NodeID(s.Intn(n)), network.Entry{
				Gateway: gws[s.Intn(len(gws))], NextHop: NodeID(s.Intn(n)),
				Hops: 1 + s.Intn(9), Updated: step,
			})
		}
		meter.Measure(step)
		w.Step()
	}
	if got := meter.Resyncs(); got != 1 {
		t.Fatalf("Resyncs() = %d on a clean run, want 1", got)
	}
}

// TestMeterPartitionStaysIncremental pins the meter on partition-active
// steps: the world reports their exact edge edits, so the meter applies
// them like any other step and resyncs only for its first measure and at
// fault epochs (where the masks move), on both stepping engines, while
// every value still equals the scratch referee's.
func TestMeterPartitionStaysIncremental(t *testing.T) {
	const steps = 150
	sched := meterSchedules(t, steps)["preset-partition"]
	for ename, rebuild := range map[string]bool{"incremental": false, "rebuild": true} {
		t.Run(ename, func(t *testing.T) {
			w, err := netgen.Generate(testSpec(), 11)
			if err != nil {
				t.Fatal(err)
			}
			w.SetFullRebuild(rebuild)
			w.SetFaults(sched)
			n := w.N()
			ts := NewTables(n, 2)
			meter := NewMeter(w, ts)
			var scratch Scratch
			s := rng.New(5)
			partSteps := 0
			for step := 0; step < steps; step++ {
				gws := w.Gateways()
				for i := 0; len(gws) > 0 && i < 10; i++ {
					ts.Update(NodeID(s.Intn(n)), network.Entry{
						Gateway: gws[s.Intn(len(gws))], NextHop: NodeID(s.Intn(n)),
						Hops: 1 + s.Intn(9), Updated: step,
					})
				}
				if got, want := meter.Measure(step), scratchQuad(w, ts, &scratch, step); got != want {
					t.Fatalf("step %d: meter %+v, scratch %+v", step, got, want)
				}
				w.Step()
				if _, active := w.Partition(); active {
					partSteps++
				}
			}
			epochs := w.FaultEpoch()
			t.Logf("%d resyncs, %d fault epochs, %d partition-active steps", meter.Resyncs(), epochs, partSteps)
			if partSteps <= epochs+1 {
				t.Fatalf("vacuous: %d partition-active steps, %d fault epochs", partSteps, epochs)
			}
			if got := meter.Resyncs(); got > 1+epochs {
				t.Fatalf("Resyncs() = %d over %d partition-active steps, want <= 1 + %d fault epochs",
					got, partSteps, epochs)
			}
		})
	}
}

// TestMeterSteadyStateAllocs pins the zero-allocation property: once
// warmed up, a measure step (table writes + world step + Measure) must not
// allocate.
func TestMeterSteadyStateAllocs(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	n := w.N()
	gws := w.Gateways()
	ts := NewTables(n, 2)
	meter := NewMeter(w, ts)
	s := rng.New(5)
	step := 0
	iter := func() {
		for i := 0; i < 16; i++ {
			ts.Update(NodeID(s.Intn(n)), network.Entry{
				Gateway: gws[s.Intn(len(gws))], NextHop: NodeID(s.Intn(n)),
				Hops: 1 + s.Intn(9), Updated: step,
			})
		}
		meter.Measure(step)
		w.Step()
		step++
	}
	for i := 0; i < 300; i++ {
		iter() // warm-up: grow every buffer to its steady-state footprint
	}
	if avg := testing.AllocsPerRun(100, iter); avg != 0 {
		t.Fatalf("measure step allocates %.1f times in steady state, want 0", avg)
	}
}

// TestReachSetCallerOwned pins the pooled package helper's contract: the
// returned slice is the caller's copy, untouched by later calls.
func TestReachSetCallerOwned(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTables(w.N(), 2)
	for u := 0; u < w.N(); u++ {
		for _, v := range w.Topology().Out(NodeID(u)) {
			if w.IsGateway(v) {
				ts.Update(NodeID(u), network.Entry{Gateway: v, NextHop: v, Hops: 1, Updated: 0})
			}
		}
	}
	first := ReachSet(w, ts)
	snapshot := make([]bool, len(first))
	copy(snapshot, first)
	for i := 0; i < 3; i++ {
		ReachSet(w, ts) // reuses the pooled scratch; must not alias first
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("ReachSet result mutated by subsequent calls — pooled scratch leaked to the caller")
	}
}

// FuzzMeterEquivalence feeds arbitrary byte-driven op sequences (writes,
// purges, steps, skipped probes) to a meter over a small faulted world and
// demands scratch equality at every probe.
func FuzzMeterEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(1))
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x10, 0x20}, uint64(7))
	spec := netgen.Spec{
		N: 40, TargetEdges: 240, ArenaSide: 40, RangeSpread: 0.25,
		Mobility: netgen.MobilityRandom, MobileFraction: 0.5,
		MinSpeed: 0.1, MaxSpeed: 0.5, Gateways: 3, RangeBoost: 1.5,
	}
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		if len(ops) == 0 || len(ops) > 512 {
			return
		}
		w, err := netgen.Generate(spec, 1+seed%16)
		if err != nil {
			return
		}
		sched, err := faults.Preset("churn", w.N(), w.Gateways(), 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaults(sched)
		n := w.N()
		gws := w.Gateways()
		ts := NewTables(n, 2)
		meter := NewMeter(w, ts)
		var scratch Scratch
		step := 0
		for i := 0; i+3 < len(ops); i += 4 {
			a, b, c, d := int(ops[i]), int(ops[i+1]), int(ops[i+2]), int(ops[i+3])
			switch a % 4 {
			case 0:
				ts.Update(NodeID(b%n), network.Entry{
					Gateway: gws[c%len(gws)], NextHop: NodeID(d % n),
					Hops: 1 + c%9, Updated: step,
				})
			case 1:
				limit := 1 + d%9
				ts.DropIf(NodeID(b%n), func(e network.Entry) bool { return e.Hops >= limit })
			case 2:
				w.Step()
				step++
			case 3:
				got := meter.Measure(step)
				want := scratchQuad(w, ts, &scratch, step)
				if got != want {
					t.Fatalf("op %d (step %d): meter %+v, scratch %+v", i, step, got, want)
				}
			}
		}
		got := meter.Measure(step)
		want := scratchQuad(w, ts, &scratch, step)
		if got != want {
			t.Fatalf("final (step %d): meter %+v, scratch %+v", step, got, want)
		}
	})
}
