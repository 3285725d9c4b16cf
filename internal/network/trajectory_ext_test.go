package network_test

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/netgen"
	"repro/internal/network"
)

// TestTrajectoryWorldAllocs bounds what a fresh replay world costs at the
// size of the Fig 11 worlds (Routing250 under churn): one allocation per
// adjacency row and a handful for the world, its fault masks and its
// cursor. A replay world never rebuilds its topology, so it needs no
// grid, mover fleet or CSR build, and its geometry codec waits for the
// first geometry read.
func TestTrajectoryWorldAllocs(t *testing.T) {
	const steps = 50
	w, err := netgen.Generate(netgen.Routing250(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Preset("churn", w.N(), w.Gateways(), steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaults(sched)
	traj, err := network.RecordTrajectory(w, steps)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := traj.World(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(w.N() + 12); allocs > limit {
		t.Fatalf("Trajectory.World allocates %.0f times at n=%d, want at most %.0f", allocs, w.N(), limit)
	}
	t.Logf("Trajectory.World: %.0f allocations at n=%d", allocs, w.N())
}
