package network

import "testing"

// connEngines enumerates the stepping paths the tracker must agree under;
// each setup configures a freshly built world.
func connEngines() map[string]func(w *World) {
	return map[string]func(w *World){
		"incremental": func(w *World) {},
		"rebuild":     func(w *World) { w.SetFullRebuild(true) },
	}
}

// TestConnTrackerMatchesScratch is the tentpole equivalence gate for the
// incremental ideal-connectivity tracker: at every step of every fault
// workload under every stepping engine, ConnTracker.Connectivity must be
// bit-identical to the scratch ConnectivityToGateways.
func TestConnTrackerMatchesScratch(t *testing.T) {
	const n, steps = 120, 120
	gateways := []NodeID{0, 40, 80}
	scheds := faultSchedules(n, gateways, steps)
	scheds["clean"] = nil
	for sname, sched := range scheds {
		for ename, setup := range connEngines() {
			t.Run(sname+"/"+ename, func(t *testing.T) {
				w := buildFaultWorld(t, n, gateways, 3)
				setup(w)
				if sched != nil {
					w.SetFaults(sched)
				}
				tr := NewConnTracker(w)
				for step := 0; step <= steps; step++ {
					got := tr.Connectivity()
					want := w.ConnectivityToGateways()
					if got != want {
						t.Fatalf("step %d: tracker %v, scratch %v", step, got, want)
					}
					// Same-step queries must stay consistent (and cheap).
					if again := tr.Connectivity(); again != got {
						t.Fatalf("step %d: repeated query changed: %v vs %v", step, again, got)
					}
					w.Step()
				}
				if tr.Resyncs() < 1 {
					t.Fatal("tracker never performed its initial recompute")
				}
			})
		}
	}
}

// TestConnTrackerReplay runs the tracker over a trajectory-replay world:
// the recorded delta stream is exact, so the tracker must stay bit-identical
// there too, including across replayed fault steps.
func TestConnTrackerReplay(t *testing.T) {
	const n, steps = 120, 120
	gateways := []NodeID{0, 40, 80}
	scheds := faultSchedules(n, gateways, steps)
	scheds["clean"] = nil
	for sname, sched := range scheds {
		t.Run(sname, func(t *testing.T) {
			rec := buildFaultWorld(t, n, gateways, 3)
			if sched != nil {
				rec.SetFaults(sched)
			}
			traj, err := RecordTrajectory(rec, steps)
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
			tr := NewConnTracker(rep)
			for step := 0; step < steps; step++ {
				if got, want := tr.Connectivity(), rep.ConnectivityToGateways(); got != want {
					t.Fatalf("step %d: tracker %v, scratch %v", step, got, want)
				}
				rep.Step()
			}
		})
	}
}

// TestConnTrackerStaysIncremental pins the O(changes) claim's control
// flow: on a clean dynamic world stepped incrementally, the tracker must
// resync exactly once (first use) and ride the delta stream thereafter —
// otherwise the fallback would silently absorb every step.
func TestConnTrackerStaysIncremental(t *testing.T) {
	const steps = 200
	w := buildFaultWorld(t, 120, []NodeID{0, 40, 80}, 3)
	tr := NewConnTracker(w)
	for step := 0; step < steps; step++ {
		tr.Connectivity()
		w.Step()
	}
	tr.Connectivity()
	if got := tr.Resyncs(); got != 1 {
		t.Fatalf("Resyncs() = %d on a clean incremental run, want 1", got)
	}
}

// TestConnTrackerSkippedStepsResync pins the degradation path: a consumer
// that misses steps (queries every k-th step) cannot trust the one-step
// delta buffer and must fall back to a recompute, still bit-identical.
func TestConnTrackerSkippedStepsResync(t *testing.T) {
	const steps = 120
	w := buildFaultWorld(t, 120, []NodeID{0, 40, 80}, 3)
	tr := NewConnTracker(w)
	for step := 0; step < steps; step++ {
		if step%7 == 0 {
			if got, want := tr.Connectivity(), w.ConnectivityToGateways(); got != want {
				t.Fatalf("step %d: tracker %v, scratch %v", step, got, want)
			}
		}
		w.Step()
	}
	if tr.Resyncs() < steps/7 {
		t.Fatalf("Resyncs() = %d, want one per skipped-step query (~%d)", tr.Resyncs(), steps/7)
	}
}

// TestConnTrackerResetRebinds reuses one tracker across two different
// worlds, as the pooled harness state does.
func TestConnTrackerResetRebinds(t *testing.T) {
	wA := buildFaultWorld(t, 120, []NodeID{0, 40, 80}, 3)
	wB := buildFaultWorld(t, 90, []NodeID{5}, 17)
	tr := NewConnTracker(wA)
	for step := 0; step < 30; step++ {
		if got, want := tr.Connectivity(), wA.ConnectivityToGateways(); got != want {
			t.Fatalf("world A step %d: tracker %v, scratch %v", step, got, want)
		}
		wA.Step()
	}
	tr.Reset(wB)
	for step := 0; step < 30; step++ {
		if got, want := tr.Connectivity(), wB.ConnectivityToGateways(); got != want {
			t.Fatalf("world B step %d: tracker %v, scratch %v", step, got, want)
		}
		wB.Step()
	}
}
