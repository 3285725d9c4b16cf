package network

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/rng"
)

// buildAllocWorld builds the same MANET mix as the root BenchmarkWorldStep
// world — constant node density, half local-waypoint roamers with pause
// times, half stationary, a quarter on decaying batteries — so allocation
// budgets are enforced on the exact population the benchmarks time.
func buildAllocWorld(tb testing.TB, n int) *World {
	tb.Helper()
	s := rng.New(uint64(n))
	side := 150 * math.Sqrt(float64(n)/250)
	arena := geom.Square(side)
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := range pos {
		pos[i] = geom.Point{X: s.Range(0, side), Y: s.Range(0, side)}
		if i%4 == 1 {
			radios[i] = radio.NewBattery(s.Range(10, 20), 0.0005, 0.6)
		} else {
			radios[i] = radio.New(s.Range(10, 20))
		}
		if i%2 == 0 {
			pause := 40 + int(s.Intn(81))
			movers[i] = mobility.NewLocalWaypoint(arena, 30, 0.5, 3, pause, s.Child(uint64(i)))
		} else {
			movers[i] = mobility.Static{}
		}
	}
	w, err := NewWorld(Config{
		Arena: arena, Positions: pos, Radios: radios, Movers: movers,
		Gateways: []NodeID{0, 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// TestWorldStepZeroAllocs enforces the hot-loop allocation budget: once
// the double-buffered topology, the spatial grid, and the connectivity
// scratch have warmed up, stepping a dynamic world and measuring gateway
// connectivity must be allocation-free in the steady state. The small
// subtest is the original all-mobile battery world; the large ones run the
// benchmark MANET mix at sizes where buffer growth used to leak through
// (grid buckets, in-source decay lists, CSR row growth), and the replay
// arm steps a recorded trajectory of the n=2000 world.
func TestWorldStepZeroAllocs(t *testing.T) {
	t.Run("n=40", func(t *testing.T) {
		s := rng.New(33)
		n := 40
		pos := make([]geom.Point, n)
		radios := make([]radio.Radio, n)
		movers := make([]mobility.Mover, n)
		for i := range pos {
			pos[i] = geom.Point{X: s.Range(0, 50), Y: s.Range(0, 50)}
			radios[i] = radio.NewBattery(s.Range(5, 15), 0.0001, 0.3)
			movers[i] = mobility.NewRandomVelocity(geom.Square(50), 0.5, 2, s.Child(uint64(i)))
		}
		w, err := NewWorld(Config{
			Arena:     geom.Square(50),
			Positions: pos,
			Radios:    radios,
			Movers:    movers,
			Gateways:  []NodeID{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		measureStepAllocs(t, w)
	})
	for _, n := range []int{2000, 8000} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if testing.Short() && n > 2000 {
				t.Skip("short mode")
			}
			measureStepAllocs(t, buildAllocWorld(t, n))
		})
	}
	// Replay worlds step from a recorded tape: their decode cursor and
	// predictor lanes must reach steady state the same way.
	t.Run("n=2000-replay", func(t *testing.T) {
		traj, err := RecordTrajectory(buildAllocWorld(t, 2000), 520)
		if err != nil {
			t.Fatal(err)
		}
		w, err := traj.World()
		if err != nil {
			t.Fatal(err)
		}
		measureStepAllocs(t, w)
	})
}

// measureStepAllocs warms w into steady state and fails if stepping plus
// the connectivity sweep still allocates.
func measureStepAllocs(t *testing.T, w *World) {
	t.Helper()
	// Warm up: both topology buffers, every grid cell's historic maximum
	// occupancy, and the reach scratch all reach steady state.
	for i := 0; i < 300; i++ {
		w.Step()
		w.ConnectivityToGateways()
	}
	avg := testing.AllocsPerRun(200, func() {
		w.Step()
		w.ConnectivityToGateways()
	})
	// A node wandering into a cell that is fuller than that cell has ever
	// been can still grow one bucket; allow that sliver, nothing more.
	if avg > 0.05 {
		t.Fatalf("World.Step+ConnectivityToGateways allocates %v per step, want ~0", avg)
	}
}

// TestTableResetZeroAllocs enforces the pooled per-worker scratch budget:
// recycling a node table between runs (Reset + refill to the same working
// set) must not allocate, so a replication worker's table array reaches
// steady state after its first run.
func TestTableResetZeroAllocs(t *testing.T) {
	const capacity = 4
	tab := NewTable(capacity)
	fill := func() {
		for g := 0; g < capacity+2; g++ { // +2 forces evictions too
			tab.Update(Entry{Gateway: NodeID(g), NextHop: NodeID(g + 1), Hops: g, Updated: g})
		}
	}
	fill()
	avg := testing.AllocsPerRun(200, func() {
		tab.Reset(capacity)
		fill()
	})
	if avg > 0 {
		t.Fatalf("Table.Reset+refill allocates %v per cycle, want 0", avg)
	}
	if tab.Evictions() == 0 {
		t.Fatal("refill never evicted — the test is not exercising the eviction path")
	}
}

// TestWorldStepZeroAllocsInstrumented repeats the hot-loop budget with a
// live metrics registry attached: phase timers, the link-churn diff, and
// the edge gauge must all stay inside the same allocation budget.
func TestWorldStepZeroAllocsInstrumented(t *testing.T) {
	s := rng.New(33)
	n := 40
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := range pos {
		pos[i] = geom.Point{X: s.Range(0, 50), Y: s.Range(0, 50)}
		radios[i] = radio.NewBattery(s.Range(5, 15), 0.0001, 0.3)
		movers[i] = mobility.NewRandomVelocity(geom.Square(50), 0.5, 2, s.Child(uint64(i)))
	}
	w, err := NewWorld(Config{
		Arena:     geom.Square(50),
		Positions: pos,
		Radios:    radios,
		Movers:    movers,
		Gateways:  []NodeID{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Instrument(metrics.NewRegistry())
	for i := 0; i < 200; i++ {
		w.Step()
		w.ConnectivityToGateways()
	}
	avg := testing.AllocsPerRun(200, func() {
		w.Step()
		w.ConnectivityToGateways()
	})
	if avg > 0.05 {
		t.Fatalf("instrumented World.Step+ConnectivityToGateways allocates %v per step, want ~0", avg)
	}
}
