package network

import (
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
)

// TestTopoDeltasReplayTopology pins the TopoDeltas contract directly, on
// the sequential and the sharded incremental engine: on every step not
// marked Rebuilt, applying the step's removals and then its additions to
// the previous topology reproduces the current one; every reported edge is
// one the step decided on at most once, and one the graph reflects (a
// reported removal is absent afterwards, a reported addition present — a
// report the two topologies do not differ on is thereby a no-op edit);
// and Rebuilt is set exactly on full-rebuild and fault steps. Each world
// also runs against an always-full-rebuild twin, so an engine whose edits
// and reports agree but are both wrong fails too.
func TestTopoDeltasReplayTopology(t *testing.T) {
	engines := []struct {
		name   string
		shards int
	}{{"incremental", 1}, {"sharded=2", 2}}
	for name, sc := range incrementalScenarios() {
		for _, eng := range engines {
			t.Run(name+"/"+eng.name, func(t *testing.T) {
				build := func() *World { return buildPlannedWorld(t, sc.plans(), sc.p, 5) }
				// Full-rebuild interludes make the engine resync from a
				// world that moved and drained behind its back.
				checkTopoDeltas(t, build, eng.shards, nil, sc.steps, func(step int) bool { return step%60 >= 50 })
			})
		}
	}
	const n, steps = 120, 120
	gateways := []NodeID{0, 40, 80}
	sched, err := faults.Preset("churn", n, gateways, steps, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		t.Run("faults=churn/"+eng.name, func(t *testing.T) {
			build := func() *World { return buildFaultWorld(t, n, gateways, 3) }
			checkTopoDeltas(t, build, eng.shards, sched, steps, func(int) bool { return false })
		})
	}
}

// checkTopoDeltas steps a watched world built by build (with the given
// shard count and fault schedule, running full rebuilds on the steps
// fullAt selects) next to an always-full-rebuild twin, and checks every
// step's TopoDeltas against the topologies before and after it.
func checkTopoDeltas(t *testing.T, build func() *World, shards int, sched *faults.Schedule, steps int, fullAt func(step int) bool) {
	t.Helper()
	w, twin := build(), build()
	w.SetShardWorkers(shards)
	twin.SetFullRebuild(true)
	w.SetFaults(sched)
	twin.SetFaults(sched)
	d := w.WatchTopology()
	replay := cloneAdj(w.Topology())
	seen := make(map[[2]NodeID]bool)
	reported, rebuilt := 0, 0
	for step := 1; step <= steps; step++ {
		full := fullAt(step)
		_, partActive := w.Partition()
		epoch := w.FaultEpoch()
		w.SetFullRebuild(full)
		w.Step()
		twin.Step()
		cur := w.Topology()
		if diff, ok := sameTopology(cur, twin.Topology()); !ok {
			t.Fatalf("step %d: engine vs full rebuild: %s", step, diff)
		}
		if d.Step != step {
			t.Fatalf("step %d: deltas describe step %d", step, d.Step)
		}
		wantRebuilt := full || partActive || w.FaultEpoch() != epoch
		if d.Rebuilt != wantRebuilt {
			t.Fatalf("step %d: Rebuilt = %v, want %v (full=%v partition=%v fault=%v)",
				step, d.Rebuilt, wantRebuilt, full, partActive, w.FaultEpoch() != epoch)
		}
		if d.Rebuilt {
			rebuilt++
			replay = cloneAdj(cur)
			continue
		}
		clear(seen)
		for i := range d.RemU {
			u, v := d.RemU[i], d.RemV[i]
			if seen[[2]NodeID{u, v}] {
				t.Fatalf("step %d: edge %d→%d reported twice", step, u, v)
			}
			seen[[2]NodeID{u, v}] = true
			if cur.HasEdgeSorted(u, v) {
				t.Fatalf("step %d: reported removal %d→%d is still in the graph", step, u, v)
			}
			if j, ok := slices.BinarySearch(replay[u], v); ok {
				replay[u] = slices.Delete(replay[u], j, j+1)
			}
		}
		for i := range d.AddU {
			u, v := d.AddU[i], d.AddV[i]
			if seen[[2]NodeID{u, v}] {
				t.Fatalf("step %d: edge %d→%d reported twice", step, u, v)
			}
			seen[[2]NodeID{u, v}] = true
			if !cur.HasEdgeSorted(u, v) {
				t.Fatalf("step %d: reported addition %d→%d is not in the graph", step, u, v)
			}
			if j, ok := slices.BinarySearch(replay[u], v); !ok {
				replay[u] = slices.Insert(replay[u], j, v)
			}
		}
		reported += len(d.RemU) + len(d.AddU)
		for u := range replay {
			if !slices.Equal(replay[u], cur.Out(NodeID(u))) {
				t.Fatalf("step %d: replayed out-list of %d is %v, graph has %v",
					step, u, replay[u], cur.Out(NodeID(u)))
			}
		}
	}
	if reported == 0 || rebuilt == 0 {
		t.Fatalf("vacuous run: %d edges reported, %d rebuilt steps", reported, rebuilt)
	}
}

// cloneAdj copies g's sorted out-lists.
func cloneAdj(g *graph.Directed) [][]NodeID {
	out := make([][]NodeID, g.N())
	for u := range out {
		out[u] = slices.Clone(g.Out(NodeID(u)))
	}
	return out
}
