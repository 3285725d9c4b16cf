package network

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// readSchedules returns when a geometry reader looks at a replay world
// stepped `steps` times: never, after every step, after a sparse random
// subset of steps, and only after the last one.
func readSchedules(steps int, seed uint64) map[string]func(step int) bool {
	s := rng.New(seed)
	sparse := make([]bool, steps+1)
	for i := range sparse {
		sparse[i] = s.Bool(0.1)
	}
	return map[string]func(int) bool{
		"never":  func(int) bool { return false },
		"every":  func(int) bool { return true },
		"sparse": func(step int) bool { return sparse[step] },
		"end":    func(step int) bool { return step == steps },
	}
}

// TestReplayGeometryOnDemand pins the replay worlds' lazy geometry: a
// replay step applies only the topology record and leaves positions and
// ranges pending, and a geometry read catches up first. Whatever the read
// schedule, under every fault workload, every read sees the live world's
// Snapshot, the topology matches at every step, and a world no one reads
// decodes no geometry at all. It covers a fresh Trajectory.World and a
// Lookahead's replay world, reused from case to case and read while the
// helper still writes its tape (the -race gates run it).
func TestReplayGeometryOnDemand(t *testing.T) {
	const n, steps = 90, 80
	gateways := []NodeID{0, 30, 60}
	scheds := faultSchedules(n, gateways, steps)
	scheds["clean"] = nil
	var a Lookahead
	for name, sched := range scheds {
		for rname, read := range readSchedules(steps, 3) {
			t.Run(name+"/"+rname, func(t *testing.T) {
				build := func() *World {
					w := buildFaultWorld(t, n, gateways, 4)
					w.SetFaults(sched)
					return w
				}
				traj, err := RecordTrajectory(build(), steps)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := traj.World()
				if err != nil {
					t.Fatal(err)
				}
				replayReadsMatch(t, "trajectory world", fresh, build(), steps, read)
				rw, started := a.Start(build(), steps, goSpawn, nil)
				if !started || rw == nil {
					t.Fatalf("Start = %v, %v", rw, started)
				}
				defer a.Stop()
				replayReadsMatch(t, "lookahead world", rw, build(), steps, read)
			})
		}
	}
}

// replayReadsMatch steps the replay world rep beside its live twin and
// compares their snapshots on the steps read picks.
func replayReadsMatch(t *testing.T, name string, rep, live *World, steps int, read func(int) bool) {
	t.Helper()
	var got, want Snapshot
	reads := 0
	for step := 1; step <= steps; step++ {
		rep.Step()
		live.Step()
		if diff, ok := sameTopology(live.Topology(), rep.Topology()); !ok {
			t.Fatalf("%s, step %d: topology diverges: %s", name, step, diff)
		}
		if !read(step) {
			continue
		}
		reads++
		rep.SnapshotInto(&got)
		live.SnapshotInto(&want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, step %d: the replay world's snapshot differs from the live world's", name, step)
		}
		if c := rep.traj; c.applied != c.stepped {
			t.Fatalf("%s, step %d: a read left %d of %d geometry records pending", name, step, c.stepped-c.applied, c.stepped)
		}
	}
	c := rep.traj
	if c.stepped == 0 {
		t.Fatalf("%s: the replay stepped over no record", name)
	}
	if reads == 0 && c.applied != 0 {
		t.Fatalf("%s: no one read the geometry, yet %d bodies were decoded", name, c.applied)
	}
}
