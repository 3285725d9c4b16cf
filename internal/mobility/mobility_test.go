package mobility

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestStatic(t *testing.T) {
	var m Static
	p := geom.Point{X: 3, Y: 4}
	for i := 0; i < 10; i++ {
		if got := m.Step(p); got != p {
			t.Fatalf("static node moved to %v", got)
		}
	}
}

func TestConstantVelocitySpeed(t *testing.T) {
	arena := geom.Square(1000)
	s := rng.New(1)
	m := NewConstantVelocity(arena, 2.5, s)
	p := geom.Point{X: 500, Y: 500}
	for i := 0; i < 50; i++ {
		np := m.Step(p)
		if d := np.Dist(p); math.Abs(d-2.5) > 1e-9 {
			t.Fatalf("step %d moved %v, want 2.5", i, d)
		}
		p = np
	}
}

func TestConstantVelocityStaysInArena(t *testing.T) {
	arena := geom.Square(10)
	for seed := uint64(0); seed < 20; seed++ {
		m := NewConstantVelocity(arena, 3, rng.New(seed))
		p := geom.Point{X: 5, Y: 5}
		for i := 0; i < 200; i++ {
			p = m.Step(p)
			if !arena.Contains(p) {
				t.Fatalf("seed %d escaped arena at %v", seed, p)
			}
		}
	}
}

func TestRandomVelocityRange(t *testing.T) {
	arena := geom.Square(1000)
	for seed := uint64(0); seed < 30; seed++ {
		m := NewRandomVelocity(arena, 1, 4, rng.New(seed))
		p := geom.Point{X: 500, Y: 500}
		np := m.Step(p)
		d := np.Dist(p)
		if d < 1-1e-9 || d >= 4+1e-9 {
			t.Fatalf("seed %d speed %v outside [1,4)", seed, d)
		}
		// Speed stays constant for a given node.
		p2 := m.Step(np)
		if math.Abs(p2.Dist(np)-d) > 1e-9 {
			t.Fatalf("seed %d speed changed from %v to %v", seed, d, p2.Dist(np))
		}
	}
}

func TestRandomVelocityDiversity(t *testing.T) {
	arena := geom.Square(1000)
	s := rng.New(42)
	speeds := map[float64]bool{}
	for i := 0; i < 10; i++ {
		m := NewRandomVelocity(arena, 1, 4, s.Child(uint64(i)))
		p := m.Step(geom.Point{X: 500, Y: 500})
		speeds[math.Round(p.Dist(geom.Point{X: 500, Y: 500})*1e6)] = true
	}
	if len(speeds) < 8 {
		t.Fatalf("random velocities not diverse: %d distinct of 10", len(speeds))
	}
}

func TestWaypointReachesAndPauses(t *testing.T) {
	arena := geom.Square(100)
	m := NewWaypoint(arena, 5, 5, 3, rng.New(9))
	p := geom.Point{X: 50, Y: 50}
	var arrived geom.Point
	steps := 0
	for ; steps < 1000; steps++ {
		np := m.Step(p)
		if np == p && steps > 0 {
			arrived = p
			break
		}
		p = np
	}
	if steps == 1000 {
		t.Fatal("waypoint never paused")
	}
	// Must stay paused for the configured dwell.
	for i := 0; i < 2; i++ { // one pause step consumed by the detection loop
		if got := m.Step(arrived); got != arrived {
			t.Fatalf("moved during pause: %v", got)
		}
	}
	// Then it picks a new destination and moves again.
	moved := false
	for i := 0; i < 50; i++ {
		np := m.Step(arrived)
		if np != arrived {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("never resumed after pause")
	}
}

func TestWaypointStaysInArena(t *testing.T) {
	arena := geom.Square(50)
	m := NewWaypoint(arena, 1, 10, 0, rng.New(3))
	p := geom.Point{X: 25, Y: 25}
	for i := 0; i < 500; i++ {
		p = m.Step(p)
		if !arena.Contains(p) {
			t.Fatalf("waypoint escaped arena: %v", p)
		}
	}
}

func TestWaypointSpeedBounded(t *testing.T) {
	arena := geom.Square(100)
	m := NewWaypoint(arena, 2, 6, 0, rng.New(5))
	p := geom.Point{X: 10, Y: 10}
	for i := 0; i < 300; i++ {
		np := m.Step(p)
		if d := np.Dist(p); d > 6+1e-9 {
			t.Fatalf("step %d moved %v > max speed", i, d)
		}
		p = np
	}
}

func TestFleetStepsAll(t *testing.T) {
	arena := geom.Square(100)
	movers := []Mover{
		Static{},
		NewConstantVelocity(arena, 1, rng.New(1)),
		NewRandomVelocity(arena, 1, 2, rng.New(2)),
	}
	f := NewFleet(movers)
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	pos := []geom.Point{{X: 1, Y: 1}, {X: 50, Y: 50}, {X: 60, Y: 60}}
	orig := append([]geom.Point(nil), pos...)
	f.Step(pos)
	if pos[0] != orig[0] {
		t.Fatal("static node moved")
	}
	if pos[1] == orig[1] || pos[2] == orig[2] {
		t.Fatal("mobile node did not move")
	}
}

func TestDeterministicTraces(t *testing.T) {
	arena := geom.Square(100)
	run := func() []geom.Point {
		m := NewRandomVelocity(arena, 1, 3, rng.New(77))
		p := geom.Point{X: 20, Y: 20}
		var trace []geom.Point
		for i := 0; i < 100; i++ {
			p = m.Step(p)
			trace = append(trace, p)
		}
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverged at step %d", i)
		}
	}
}

// TestFleetStepOneMatchesStep pins the incremental engine's entry point:
// stepping each mover individually through StepOne (in any per-node order)
// must reproduce Fleet.Step exactly, because every mover owns a private
// RNG stream.
func TestFleetStepOneMatchesStep(t *testing.T) {
	arena := geom.Square(60)
	build := func() (*Fleet, []geom.Point) {
		s := rng.New(12)
		n := 24
		movers := make([]Mover, n)
		pos := make([]geom.Point, n)
		for i := range movers {
			pos[i] = geom.Point{X: s.Range(0, 60), Y: s.Range(0, 60)}
			switch i % 3 {
			case 0:
				movers[i] = NewRandomVelocity(arena, 0.5, 2, s.Child(uint64(i)))
			case 1:
				movers[i] = NewLocalWaypoint(arena, 10, 0.5, 2, 3, s.Child(uint64(i)))
			default:
				movers[i] = Static{}
			}
		}
		return NewFleet(movers), pos
	}
	fa, pa := build()
	fb, pb := build()
	for step := 0; step < 200; step++ {
		fa.Step(pa)
		// Step the twin one mover at a time, deliberately in reverse
		// order: per-mover RNG streams make the order unobservable.
		for i := fb.Len() - 1; i >= 0; i-- {
			pb[i] = fb.StepOne(i, pb[i])
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("step %d: mover %d diverged: %v vs %v", step, i, pa[i], pb[i])
			}
		}
	}
}
