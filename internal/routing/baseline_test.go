package routing_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/faults"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/routing"
)

// TestBaselineMeasureMatchesReferee pins the baselines' measurement: at
// every step of a 300-step Routing250 run, clean and under churn, the
// ant colony's and the distance-vector protocol's Measure must equal the
// scratch referee run over a freshly built copy of their tables (NewTables
// at the same capacity, then Update entry by entry). The baselines'
// in-place rewrite is pinned against a build from their protocol state by
// TestKeptTablesMatchFreshBuild in internal/baseline.
func TestBaselineMeasureMatchesReferee(t *testing.T) {
	const steps = 300
	type router interface {
		Step()
		Measure(step int) routing.Measurement
		Tables(step int) *routing.Tables
	}
	for _, preset := range []string{"clean", "churn"} {
		world := func(t *testing.T) *network.World {
			w, err := netgen.Generate(netgen.Routing250(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if preset != "clean" {
				sched, err := faults.Preset(preset, w.N(), w.Gateways(), steps, 1)
				if err != nil {
					t.Fatal(err)
				}
				w.SetFaults(sched)
			}
			return w
		}
		routers := map[string]struct {
			build    func(w *network.World) router
			capacity int
		}{
			"ants": {func(w *network.World) router {
				return baseline.NewAntColony(w, 100, 0.02, 64, rng.New(1))
			}, 1},
			"dv": {func(w *network.World) router {
				return baseline.NewDistanceVector(w, 3)
			}, netgen.Routing250().Gateways},
		}
		for name, rt := range routers {
			t.Run(preset+"/"+name, func(t *testing.T) {
				w := world(t)
				r := rt.build(w)
				for step := 0; step < steps; step++ {
					r.Step()
					got := r.Measure(step)
					kept := r.Tables(step)
					fresh := routing.NewTables(w.N(), rt.capacity)
					for u := 0; u < w.N(); u++ {
						for _, e := range kept.Entries(network.NodeID(u)) {
							fresh.Update(network.NodeID(u), e)
						}
					}
					if want := routing.RefereeMeasure(w, fresh, step); got != want {
						t.Fatalf("step %d: Measure %+v, referee %+v", step, got, want)
					}
					w.Step()
				}
			})
		}
	}
}
