package baseline

import (
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/routing"
)

// freshAntTables builds the colony's tables afresh from its pheromone, as
// a new Tables per call: the referee of the kept tables.
func freshAntTables(c *AntColony, step int) *routing.Tables {
	ts := routing.NewTables(c.w.N(), 1)
	for u := range c.pher {
		if c.w.IsGateway(network.NodeID(u)) {
			continue
		}
		best := network.NodeID(-1)
		bestTau := 0.0
		for v, tau := range c.pher[u] {
			if tau > bestTau || (tau == bestTau && best >= 0 && v < best) {
				best, bestTau = v, tau
			}
		}
		if best < 0 {
			continue
		}
		ts.Update(network.NodeID(u), routing.Entry{
			Gateway: c.gwHint[u][best], NextHop: best, Hops: 1, Updated: step,
		})
	}
	return ts
}

// freshDVTables builds the protocol's tables afresh from its vectors, as
// a new Tables per call: the referee of the kept tables.
func freshDVTables(dv *DistanceVector, step int) *routing.Tables {
	ts := routing.NewTables(dv.w.N(), len(dv.gateways))
	for u := 0; u < dv.w.N(); u++ {
		for k, gw := range dv.gateways {
			if dv.dist[u][k] < 0 || dv.w.IsGateway(NodeID(u)) || !dv.w.IsGateway(gw) {
				continue
			}
			ts.Update(NodeID(u), routing.Entry{
				Gateway: gw, NextHop: dv.via[u][k],
				Hops: int(dv.dist[u][k]), Updated: step - int(dv.age[u][k]),
			})
		}
	}
	return ts
}

// TestKeptTablesMatchFreshBuild pins the baselines' in-place table
// rewrite: at every step of a Routing250 run, clean and under churn, each
// row of the kept tables must equal, entry for entry and in order, the row
// a fresh build from the same state holds.
func TestKeptTablesMatchFreshBuild(t *testing.T) {
	const steps = 300
	for _, preset := range []string{"clean", "churn"} {
		t.Run(preset, func(t *testing.T) {
			worlds := make([]*network.World, 2)
			for i := range worlds {
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
				worlds[i] = w
			}
			c := NewAntColony(worlds[0], 100, 0.02, 64, rng.New(1))
			dv := NewDistanceVector(worlds[1], 3)
			for step := 0; step < steps; step++ {
				c.Step()
				dv.Step()
				// Measure on odd steps only, so rewrites also land on
				// tables the meter has not drained.
				if step%2 == 1 {
					c.Measure(step)
					dv.Measure(step)
				}
				pairs := []struct {
					name        string
					kept, fresh *routing.Tables
				}{
					{"ants", c.Tables(step), freshAntTables(c, step)},
					{"dv", dv.Tables(step), freshDVTables(dv, step)},
				}
				for _, p := range pairs {
					for u := 0; u < worlds[0].N(); u++ {
						got, want := p.kept.Entries(NodeID(u)), p.fresh.Entries(NodeID(u))
						if !slices.Equal(got, want) {
							t.Fatalf("%s step %d node %d: kept %+v, fresh %+v", p.name, step, u, got, want)
						}
					}
				}
				for _, w := range worlds {
					w.Step()
				}
			}
		})
	}
}
