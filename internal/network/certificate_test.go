package network

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/rng"
)

// certWorld is one adversarial world of TestKineticCertificatesAdversarial:
// build is called twice (movers carry RNG state), steps is the run length,
// and sched, when non-nil, is attached to both copies.
type certWorld struct {
	build func(t testing.TB) *World
	steps int
	sched func(n int) *faults.Schedule
	// poke, when non-nil, runs on both copies before every step.
	poke func(w *World, step int)
}

// newCertWorld assembles a world from parallel slices, failing the test
// on a configuration error.
func newCertWorld(t testing.TB, arena geom.Rect, pos []geom.Point, radios []radio.Radio,
	movers []mobility.Mover, gateways []NodeID) *World {
	t.Helper()
	w, err := NewWorld(Config{Arena: arena, Positions: pos, Radios: radios, Movers: movers, Gateways: gateways})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// fleetWorld is the recipe most adversarial worlds share: n nodes on a
// square arena, every third on a decaying battery, with mover(i, s)
// choosing node i's mover (nil for static) and boost(i) scaling its
// range.
func fleetWorld(t testing.TB, seed uint64, n int, side, minR, maxR float64,
	mover func(i int, box geom.Rect, s *rng.Stream) mobility.Mover, boost func(i int) float64) *World {
	s := rng.New(seed)
	box := geom.Square(side)
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	var gateways []NodeID
	for i := range pos {
		pos[i] = geom.Point{X: s.Range(0, side), Y: s.Range(0, side)}
		r := s.Range(minR, maxR)
		if b := boost(i); b != 1 {
			r *= b
			gateways = append(gateways, NodeID(i))
		}
		if i%3 == 0 {
			radios[i] = radio.NewBattery(r, 0.001, 0.5)
		} else {
			radios[i] = radio.New(r)
		}
		movers[i] = mover(i, box, s.Child(uint64(i)))
		if movers[i] == nil {
			movers[i] = mobility.Static{}
		}
	}
	return newCertWorld(t, box, pos, radios, movers, gateways)
}

func noBoost(int) float64 { return 1 }

// thresholdWorld places partners at exactly the range threshold and one
// ulp either side of it, then lets them creep across it far slower than
// any float slack: a few drift along the axis at 1e-9 per step, and the
// centers' batteries drain by ulps. Every such pair sits inside the slack
// band, so its certificate must be one step, never a prediction. Centers
// sit 14 apart, so only center-partner pairs are ever in range: any link
// churn in this world is a threshold pair flipping.
func thresholdWorld(t testing.TB) *World {
	box := geom.Square(100)
	var (
		pos    []geom.Point
		radios []radio.Radio
		movers []mobility.Mover
	)
	add := func(p geom.Point, r radio.Radio, m mobility.Mover) {
		pos, radios, movers = append(pos, p), append(radios, r), append(movers, m)
	}
	s := rng.New(5)
	for c := 0; c < 6; c++ {
		center := geom.Point{X: 15 + 14*float64(c), Y: 50}
		const r = 7.0
		if c%2 == 0 {
			add(center, radio.New(r), mobility.Static{})
		} else {
			add(center, radio.NewBattery(r, 1e-15, 0), mobility.Static{})
		}
		for k, d := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, 8)} {
			for _, dir := range []float64{1, -1} {
				p := geom.Point{X: center.X, Y: center.Y + dir*d}
				var m mobility.Mover = mobility.Static{}
				if (c+k)%2 == 0 {
					m = mobility.NewConstantVelocity(box, 1e-9, s.Child(uint64(len(pos))))
				}
				add(p, radio.New(r), m)
			}
		}
	}
	return newCertWorld(t, box, pos, radios, movers, []NodeID{0})
}

func certWorlds() map[string]certWorld {
	return map[string]certWorld{
		// One node at 20x the fleet's top speed crosses many lists per
		// step and rebuilds its own every step.
		"fast-node": {build: func(t testing.TB) *World {
			return fleetWorld(t, 1, 150, 120, 8, 14, func(i int, box geom.Rect, s *rng.Stream) mobility.Mover {
				switch {
				case i == 1:
					return mobility.NewRandomVelocity(box, 40, 60, s)
				case i%2 == 0:
					return mobility.NewLocalWaypoint(box, 20, 0.5, 3, 10, s)
				}
				return nil
			}, noBoost)
		}, steps: 200},
		// Gateway-boosted ranges set the grid and the scan reach, so
		// per-pair margins differ from the global bound.
		"gateway-boost": {build: func(t testing.TB) *World {
			return fleetWorld(t, 2, 200, 100, 7, 12, func(i int, box geom.Rect, s *rng.Stream) mobility.Mover {
				if i%2 == 1 {
					return mobility.NewRandomVelocity(box, 0.1, 0.5, s)
				}
				return nil
			}, func(i int) float64 {
				if i%17 == 0 {
					return 1.5
				}
				return 1
			})
		}, steps: 250},
		// Waypoint legs with speeds spread 50x apart and short pauses: the
		// displacement bound is broken by a faster leg and dropped at
		// every dwell.
		"waypoint-speed-change": {build: func(t testing.TB) *World {
			return fleetWorld(t, 3, 120, 90, 6, 13, func(i int, box geom.Rect, s *rng.Stream) mobility.Mover {
				if i%3 != 2 {
					return mobility.NewWaypoint(box, 0.1, 5, i%3, s)
				}
				return nil
			}, noBoost)
		}, steps: 300},
		"threshold-ulps": {build: thresholdWorld, steps: 300},
		// A small arena and fast constant-velocity movers: most steps
		// bounce someone off a wall.
		"wall-bounce": {build: func(t testing.TB) *World {
			return fleetWorld(t, 4, 60, 25, 4, 9, func(i int, box geom.Rect, s *rng.Stream) mobility.Mover {
				if i%2 == 0 {
					return mobility.NewConstantVelocity(box, 2.5, s)
				}
				return nil
			}, noBoost)
		}, steps: 250},
		// Decaying radios that lose a third of their range at once, now
		// and then: a drop past the probed decay bound, as a faster decay
		// model would cause, on static and moving nodes alike.
		"sudden-range-drops": {
			build: func(t testing.TB) *World {
				return fleetWorld(t, 5, 150, 100, 7, 13, func(i int, box geom.Rect, s *rng.Stream) mobility.Mover {
					if i%2 == 1 {
						return mobility.NewRandomVelocity(box, 0.1, 0.5, s)
					}
					return nil
				}, noBoost)
			},
			steps: 200,
			poke: func(w *World, step int) {
				if step%20 != 0 {
					return
				}
				for u := step % 7; u < w.N(); u += 7 {
					if w.radios[u].Decays() {
						w.radios[u].Degrade(2.0 / 3)
					}
				}
			},
		},
		"churn-faults": {
			build: func(t testing.TB) *World { return buildFaultWorld(t, 120, []NodeID{0, 40, 80}, 6) },
			steps: 150,
			sched: func(n int) *faults.Schedule {
				s, err := faults.Preset("churn", n, []NodeID{0, 40, 80}, 150, 7)
				if err != nil {
					panic(err)
				}
				return s
			},
		},
		"partition-faults": {
			build: func(t testing.TB) *World { return buildFaultWorld(t, 120, []NodeID{0, 40, 80}, 8) },
			steps: 150,
			sched: func(n int) *faults.Schedule {
				s, err := faults.Preset("partition", n, []NodeID{0, 40, 80}, 150, 9)
				if err != nil {
					panic(err)
				}
				return s
			},
		},
	}
}

// TestKineticCertificatesAdversarial drives the incremental engine's
// pair certificates through worlds built to break them — a node at 20x
// the fleet's speed, gateway-boosted ranges, waypoint legs that change
// speed, pairs at the range threshold and one ulp either side, wall
// bounces, decaying radios that drop past their decay bound, and the churn
// and partition fault presets — and requires the
// topology and both churn counters to equal the full rebuild's after
// every step.
func TestKineticCertificatesAdversarial(t *testing.T) {
	for name, cw := range certWorlds() {
		t.Run(name, func(t *testing.T) {
			inc, full := cw.build(t), cw.build(t)
			full.SetFullRebuild(true)
			if !inc.Dynamic() {
				t.Fatal("static world — equivalence is vacuous")
			}
			if cw.sched != nil {
				sched := cw.sched(inc.N())
				inc.SetFaults(sched)
				full.SetFaults(sched)
			}
			rInc, rFull := metrics.NewRegistry(), metrics.NewRegistry()
			inc.Instrument(rInc)
			full.Instrument(rFull)
			var churn uint64
			for step := 1; step <= cw.steps; step++ {
				if cw.poke != nil {
					cw.poke(inc, step)
					cw.poke(full, step)
				}
				inc.Step()
				full.Step()
				if diff, ok := sameTopology(inc.Topology(), full.Topology()); !ok {
					t.Fatalf("step %d: incremental vs full rebuild: %s", step, diff)
				}
				for _, c := range []string{"world_links_added_total", "world_links_removed_total"} {
					if a, b := rInc.Counter(c).Value(), rFull.Counter(c).Value(); a != b {
						t.Fatalf("step %d: %s: incremental %d vs full rebuild %d", step, c, a, b)
					}
				}
				churn = rInc.Counter("world_links_added_total").Value() +
					rInc.Counter("world_links_removed_total").Value()
			}
			if diff, ok := sameTopology(inc.Topology(), bruteForceFaultTopology(inc)); !ok {
				t.Fatalf("final step: incremental vs brute force: %s", diff)
			}
			if churn == 0 {
				t.Fatal("no link churn — the world exercised nothing")
			}
			t.Logf("%d links changed over %d steps", churn, cw.steps)
		})
	}
}
