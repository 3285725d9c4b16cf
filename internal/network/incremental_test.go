package network

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/rng"
)

// nodePlan describes one node of an equivalence-test world. Worlds are
// regenerated from the same plan and seed for each stepping mode, because
// movers carry RNG state and cannot be shared between two worlds.
type nodePlan struct {
	mover byte    // %4: 0 static, 1 random-velocity, 2 waypoint, 3 constant-velocity
	decay float64 // battery decay per step (0 = never decays)
	floor float64
}

// planParams bundles the world-level knobs of a planned equivalence world.
type planParams struct {
	arena              float64
	minR, maxR         float64
	minSpeed, maxSpeed float64
	pause              int
}

func buildPlannedWorld(t testing.TB, plans []nodePlan, p planParams, seed uint64) *World {
	t.Helper()
	s := rng.New(seed)
	box := geom.Square(p.arena)
	n := len(plans)
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i, pl := range plans {
		pos[i] = geom.Point{X: s.Range(0, p.arena), Y: s.Range(0, p.arena)}
		base := s.Range(p.minR, p.maxR)
		if pl.decay > 0 {
			radios[i] = radio.NewBattery(base, pl.decay, pl.floor)
		} else {
			radios[i] = radio.New(base)
		}
		ms := s.Child(uint64(i))
		switch pl.mover % 4 {
		case 0:
			movers[i] = mobility.Static{}
		case 1:
			movers[i] = mobility.NewRandomVelocity(box, p.minSpeed, p.maxSpeed, ms)
		case 2:
			movers[i] = mobility.NewWaypoint(box, p.minSpeed, p.maxSpeed, p.pause, ms)
		default:
			movers[i] = mobility.NewConstantVelocity(box, p.maxSpeed, ms)
		}
	}
	w, err := NewWorld(Config{
		Arena: box, Positions: pos, Radios: radios, Movers: movers,
		Gateways: []NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sameTopology demands bit-identical adjacency — same out-lists in the
// same (canonical sorted) order — not just equal edge sets.
func sameTopology(a, b *graph.Directed) (string, bool) {
	if a.N() != b.N() {
		return fmt.Sprintf("node counts differ: %d vs %d", a.N(), b.N()), false
	}
	if a.M() != b.M() {
		return fmt.Sprintf("edge counts differ: %d vs %d", a.M(), b.M()), false
	}
	for u := 0; u < a.N(); u++ {
		if !slices.Equal(a.Out(NodeID(u)), b.Out(NodeID(u))) {
			return fmt.Sprintf("out-lists of node %d differ: %v vs %v",
				u, a.Out(NodeID(u)), b.Out(NodeID(u))), false
		}
	}
	return "", true
}

// bruteForceTopology recomputes the directed link graph from first
// principles — O(n²), no grid — as an independent referee for both
// stepping paths. Scanning v upwards leaves every out-list sorted, as the
// engines keep theirs.
func bruteForceTopology(w *World) *graph.Directed {
	n := w.N()
	g := graph.New(n)
	for u := 0; u < n; u++ {
		r := w.radios[u].Range()
		if r <= 0 {
			continue
		}
		r2 := r * r
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			if w.pos[v].Dist2(w.pos[u]) <= r2 {
				g.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return g
}

// incrementalScenarios covers every edge class of the incremental engine:
// mover-incident updates (random-velocity, waypoint-with-pause, constant
// velocity), decay cursors (static decaying sources), their interaction
// (decaying statics next to paused movers), ranges draining to exactly
// zero, and displacements larger than a grid cell.
func incrementalScenarios() map[string]struct {
	plans func() []nodePlan
	p     planParams
	steps int
} {
	plan := func(n int, f func(i int) nodePlan) func() []nodePlan {
		return func() []nodePlan {
			plans := make([]nodePlan, n)
			for i := range plans {
				plans[i] = f(i)
			}
			return plans
		}
	}
	return map[string]struct {
		plans func() []nodePlan
		p     planParams
		steps int
	}{
		"mixed-mobile-decay": {
			plans: plan(120, func(i int) nodePlan {
				pl := nodePlan{mover: byte(i % 2)} // half static, half random-velocity
				if i%3 == 0 {
					pl.decay, pl.floor = 0.002, 0.5
				}
				return pl
			}),
			p:     planParams{arena: 100, minR: 8, maxR: 16, minSpeed: 0.5, maxSpeed: 3},
			steps: 250,
		},
		"waypoint-pause-decay": {
			plans: plan(90, func(i int) nodePlan {
				pl := nodePlan{}
				if i%2 == 0 {
					pl.mover = 2 // waypoint: pauses leave movers with zero displacement
				} else {
					pl.decay, pl.floor = 0.004, 0.3
				}
				return pl
			}),
			p:     planParams{arena: 80, minR: 6, maxR: 14, minSpeed: 0.5, maxSpeed: 2.5, pause: 5},
			steps: 250,
		},
		"all-mobile": {
			plans: plan(80, func(i int) nodePlan { return nodePlan{mover: byte(1 + i%3)} }),
			p:     planParams{arena: 90, minR: 8, maxR: 15, minSpeed: 1, maxSpeed: 4, pause: 3},
			steps: 200,
		},
		"static-decay-to-zero": {
			plans: plan(100, func(i int) nodePlan {
				return nodePlan{decay: 0.003, floor: 0} // every range drains to exactly 0
			}),
			p:     planParams{arena: 70, minR: 5, maxR: 12},
			steps: 400,
		},
		"fast-movers": {
			plans: plan(60, func(i int) nodePlan { return nodePlan{mover: byte(i % 2)} }),
			p:     planParams{arena: 100, minR: 8, maxR: 12, minSpeed: 5, maxSpeed: 15},
			steps: 200,
		},
	}
}

// TestIncrementalMatchesFullRebuild is the equivalence gate of the
// incremental topology engine: on randomized dynamic worlds, the
// incrementally maintained topology must be bit-identical to a full
// rebuild after every single step, and both must match an O(n²)
// brute-force referee periodically.
func TestIncrementalMatchesFullRebuild(t *testing.T) {
	for name, sc := range incrementalScenarios() {
		for _, seed := range []uint64{1, 42, 20260805} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				inc := buildPlannedWorld(t, sc.plans(), sc.p, seed)
				full := buildPlannedWorld(t, sc.plans(), sc.p, seed)
				full.SetFullRebuild(true)
				if !inc.Dynamic() {
					t.Fatal("scenario built a static world — equivalence is vacuous")
				}
				for step := 0; step < sc.steps; step++ {
					inc.Step()
					full.Step()
					if diff, ok := sameTopology(inc.Topology(), full.Topology()); !ok {
						t.Fatalf("step %d: incremental vs full rebuild: %s", step+1, diff)
					}
					if step%50 == 0 || step == sc.steps-1 {
						if diff, ok := sameTopology(inc.Topology(), bruteForceTopology(inc)); !ok {
							t.Fatalf("step %d: incremental vs brute force: %s", step+1, diff)
						}
					}
				}
			})
		}
	}
}

// TestIncrementalModeToggle flips SetFullRebuild mid-run in both
// directions and checks the world still tracks an always-full-rebuild
// twin exactly — the property that makes the knob safe for benchmarks.
func TestIncrementalModeToggle(t *testing.T) {
	sc := incrementalScenarios()["mixed-mobile-decay"]
	toggled := buildPlannedWorld(t, sc.plans(), sc.p, 7)
	full := buildPlannedWorld(t, sc.plans(), sc.p, 7)
	full.SetFullRebuild(true)
	for step := 0; step < 240; step++ {
		toggled.SetFullRebuild(step/40%2 == 1) // alternate modes every 40 steps
		toggled.Step()
		full.Step()
		if diff, ok := sameTopology(toggled.Topology(), full.Topology()); !ok {
			t.Fatalf("step %d: toggled vs full rebuild: %s", step+1, diff)
		}
	}
}

// TestIncrementalChurnCountersMatch checks the incremental engine's
// surgical churn counts agree with the full-rebuild path's topology diff,
// so the world_links_{added,removed}_total metrics mean the same thing on
// either path.
func TestIncrementalChurnCountersMatch(t *testing.T) {
	sc := incrementalScenarios()["mixed-mobile-decay"]
	inc := buildPlannedWorld(t, sc.plans(), sc.p, 11)
	full := buildPlannedWorld(t, sc.plans(), sc.p, 11)
	full.SetFullRebuild(true)
	rInc, rFull := metrics.NewRegistry(), metrics.NewRegistry()
	inc.Instrument(rInc)
	full.Instrument(rFull)
	for step := 0; step < 200; step++ {
		inc.Step()
		full.Step()
	}
	for _, name := range []string{"world_links_added_total", "world_links_removed_total"} {
		a, b := rInc.Counter(name).Value(), rFull.Counter(name).Value()
		if a != b {
			t.Errorf("%s: incremental %d vs full rebuild %d", name, a, b)
		}
		if a == 0 {
			t.Errorf("%s: no churn recorded — scenario is not exercising the counters", name)
		}
	}
}
