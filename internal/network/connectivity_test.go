package network_test

import (
	"testing"

	"repro/internal/network"
	"repro/internal/routing"
)

// These tests pin the world's side of incremental ideal-connectivity
// tracking: the ideal forest that routing.Meter keeps over the raw
// topology must follow each world's per-step topology deltas to the same
// value ConnectivityToGateways computes from scratch. The Meter measures
// empty tables here, so only its ideal bound is exercised.

// connEngines enumerates the stepping paths the tracking must agree under;
// each setup configures a freshly built world.
func connEngines() map[string]func(w *network.World) {
	return map[string]func(w *network.World){
		"incremental": func(w *network.World) {},
		"rebuild":     func(w *network.World) { w.SetFullRebuild(true) },
	}
}

// TestConnTrackerMatchesScratch is the equivalence gate for incremental
// ideal connectivity: at every step of every fault workload under every
// stepping engine, the Meter's ideal bound must be bit-identical to the
// scratch ConnectivityToGateways.
func TestConnTrackerMatchesScratch(t *testing.T) {
	const n, steps = 120, 120
	gateways := []network.NodeID{0, 40, 80}
	scheds := network.FaultSchedules(n, gateways, steps)
	scheds["clean"] = nil
	for sname, sched := range scheds {
		for ename, setup := range connEngines() {
			t.Run(sname+"/"+ename, func(t *testing.T) {
				w := network.BuildFaultWorld(t, n, gateways, 3)
				setup(w)
				if sched != nil {
					w.SetFaults(sched)
				}
				meter := routing.NewMeter(w, routing.NewTables(n, 1))
				for step := 0; step <= steps; step++ {
					got := meter.Measure(step).Ideal
					want := w.ConnectivityToGateways()
					if got != want {
						t.Fatalf("step %d: meter ideal %v, scratch %v", step, got, want)
					}
					// Same-step measures must stay consistent.
					if again := meter.Measure(step).Ideal; again != got {
						t.Fatalf("step %d: repeated measure changed: %v vs %v", step, again, got)
					}
					w.Step()
				}
				if meter.Resyncs() < 1 {
					t.Fatal("meter never performed its initial recompute")
				}
			})
		}
	}
}

// TestConnTrackerStaysIncremental pins the O(changes) claim's control
// flow: on a clean dynamic world stepped incrementally, the meter must
// resync exactly once (first use) and ride the delta stream thereafter —
// otherwise the fallback would silently absorb every step.
func TestConnTrackerStaysIncremental(t *testing.T) {
	const n, steps = 120, 200
	w := network.BuildFaultWorld(t, n, []network.NodeID{0, 40, 80}, 3)
	meter := routing.NewMeter(w, routing.NewTables(n, 1))
	for step := 0; step < steps; step++ {
		meter.Measure(step)
		w.Step()
	}
	meter.Measure(steps)
	if got := meter.Resyncs(); got != 1 {
		t.Fatalf("Resyncs() = %d on a clean incremental run, want 1", got)
	}
}
