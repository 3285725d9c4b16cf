package network

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
)

// TestTopoDeltasReplayTopology pins the TopoDeltas contract on every
// stepping path — the incremental engine (with full-rebuild interludes),
// the always-full rebuild, fault and partition steps under every fault
// workload, and replay worlds: every step's report is exact. Each reported
// edge changes the graph (a removal was present before the step and is
// absent after it, an addition the reverse), no edge is reported twice,
// and applying the report to the previous topology reproduces the current
// one, so the report sizes equal the exact diff's. Live worlds also run
// against an always-full-rebuild twin, so an engine whose edits and
// reports agree but are both wrong fails too.
func TestTopoDeltasReplayTopology(t *testing.T) {
	for name, sc := range incrementalScenarios() {
		build := func() *World { return buildPlannedWorld(t, sc.plans(), sc.p, 5) }
		t.Run(name+"/incremental", func(t *testing.T) {
			// Full-rebuild interludes make the engine resync from a world
			// that moved and drained behind its back.
			checkTopoDeltas(t, build(), build(), sc.steps, func(step int) bool { return step%60 >= 50 })
		})
		t.Run(name+"/rebuild", func(t *testing.T) {
			checkTopoDeltas(t, build(), build(), sc.steps, func(int) bool { return true })
		})
	}
	const n, steps = 120, 120
	gateways := []NodeID{0, 40, 80}
	for name, sched := range faultSchedules(n, gateways, steps) {
		name = "faults=" + strings.TrimPrefix(name, "preset-")
		build := func() *World {
			w := buildFaultWorld(t, n, gateways, 3)
			w.SetFaults(sched)
			return w
		}
		for _, engine := range []string{"incremental", "rebuild"} {
			t.Run(name+"/"+engine, func(t *testing.T) {
				checkTopoDeltas(t, build(), build(), steps, func(int) bool { return engine == "rebuild" })
			})
		}
		t.Run(name+"/replay", func(t *testing.T) {
			traj, err := RecordTrajectory(build(), steps)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := traj.World()
			if err != nil {
				t.Fatal(err)
			}
			rep.SetFaults(sched)
			checkTopoDeltas(t, rep, nil, steps, nil)
		})
	}
}

// checkTopoDeltas steps w (running full rebuilds on the steps fullAt
// selects; nil leaves the engine alone) next to twin, an always-full-
// rebuild copy (nil for replay worlds), and checks every step's TopoDeltas
// against the topologies before and after it.
func checkTopoDeltas(t *testing.T, w, twin *World, steps int, fullAt func(step int) bool) {
	t.Helper()
	if twin != nil {
		twin.SetFullRebuild(true)
	}
	d := w.WatchTopology()
	prev := cloneAdj(w.Topology())
	seen := make(map[[2]NodeID]bool)
	reported, epochs, partSteps := 0, 0, 0
	for step := 1; step <= steps; step++ {
		if fullAt != nil {
			w.SetFullRebuild(fullAt(step))
		}
		epoch := w.FaultEpoch()
		if _, active := w.Partition(); active {
			partSteps++
		}
		w.Step()
		cur := w.Topology()
		if twin != nil {
			twin.Step()
			if diff, ok := sameTopology(cur, twin.Topology()); !ok {
				t.Fatalf("step %d: engine vs full rebuild: %s", step, diff)
			}
		}
		if w.FaultEpoch() != epoch {
			epochs++
		}
		if d.Step != step {
			t.Fatalf("step %d: deltas describe step %d", step, d.Step)
		}
		added, removed := exactDiff(prev, cur)
		if len(d.AddU) != added || len(d.RemU) != removed {
			t.Fatalf("step %d: reported +%d/-%d edges, the graph changed by +%d/-%d",
				step, len(d.AddU), len(d.RemU), added, removed)
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
			j, ok := slices.BinarySearch(prev[u], v)
			if !ok {
				t.Fatalf("step %d: reported removal %d→%d was not in the graph", step, u, v)
			}
			prev[u] = slices.Delete(prev[u], j, j+1)
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
			j, ok := slices.BinarySearch(prev[u], v)
			if ok {
				t.Fatalf("step %d: reported addition %d→%d was already in the graph", step, u, v)
			}
			prev[u] = slices.Insert(prev[u], j, v)
		}
		reported += len(d.RemU) + len(d.AddU)
		for u := range prev {
			if !slices.Equal(prev[u], cur.Out(NodeID(u))) {
				t.Fatalf("step %d: replayed out-list of %d is %v, graph has %v",
					step, u, prev[u], cur.Out(NodeID(u)))
			}
		}
	}
	if reported == 0 {
		t.Fatal("vacuous run: no edge reported")
	}
	if f := w.flt; f != nil && (epochs == 0 || partitions(f.sched) > 0 && partSteps == 0) {
		t.Fatalf("vacuous run: %d fault epochs, %d partition-active steps", epochs, partSteps)
	}
}

// partitions counts the PartitionStart events of s.
func partitions(s *faults.Schedule) int {
	c := 0
	for _, e := range s.Events() {
		if e.Kind == faults.PartitionStart {
			c++
		}
	}
	return c
}

// exactDiff counts the edges cur adds to and removes from prev.
func exactDiff(prev [][]NodeID, cur *graph.Directed) (added, removed int) {
	for u := range prev {
		p, c := prev[u], cur.Out(NodeID(u))
		common := 0
		for i, j := 0, 0; i < len(p) && j < len(c); {
			switch {
			case p[i] == c[j]:
				common++
				i++
				j++
			case p[i] < c[j]:
				i++
			default:
				j++
			}
		}
		added += len(c) - common
		removed += len(p) - common
	}
	return added, removed
}

// cloneAdj copies g's sorted out-lists.
func cloneAdj(g *graph.Directed) [][]NodeID {
	out := make([][]NodeID, g.N())
	for u := range out {
		out[u] = slices.Clone(g.Out(NodeID(u)))
	}
	return out
}
