package routing

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/rng"
)

// reachSetBrute is the O(N·(N+entries)) reference for ReachSet: a forward
// search per node over the live-entry graph.
func reachSetBrute(w *network.World, ts *Tables) []bool {
	n := w.N()
	topo := w.Topology()
	out := make([][]NodeID, n)
	for u := 0; u < n; u++ {
		for _, e := range ts.Entries(NodeID(u)) {
			if topo.HasEdge(NodeID(u), e.NextHop) {
				out[u] = append(out[u], e.NextHop)
			}
		}
	}
	isGW := make([]bool, n)
	for _, g := range w.Gateways() {
		isGW[g] = true
	}
	reach := make([]bool, n)
	for u := 0; u < n; u++ {
		seen := make([]bool, n)
		stack := []NodeID{NodeID(u)}
		seen[u] = true
		for len(stack) > 0 && !reach[u] {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if isGW[v] {
				reach[u] = true
			}
			for _, nxt := range out[v] {
				if !seen[nxt] {
					seen[nxt] = true
					stack = append(stack, nxt)
				}
			}
		}
	}
	return reach
}

// TestReachSetMatchesBrute checks the reverse-BFS ReachSet against the
// forward-search reference on randomized tables and evolving topologies.
func TestReachSetMatchesBrute(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 17)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(41)
	for trial := 0; trial < 25; trial++ {
		ts := randomTables(w, s, 0.9)
		got := ReachSet(w, ts)
		want := reachSetBrute(w, ts)
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("trial %d: ReachSet[%d] = %v, brute = %v", trial, u, got[u], want[u])
			}
		}
		w.Step()
	}
}

// chainWorld is a static line 0—1—…—n-1 with node 0 the only gateway.
func chainWorld(t *testing.T, n int) *network.World {
	t.Helper()
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * 5, Y: 0}
		radios[i] = radio.New(6)
		movers[i] = mobility.Static{}
	}
	w, err := network.NewWorld(network.Config{
		Arena:     geom.Square(float64(n) * 5),
		Positions: pos,
		Radios:    radios,
		Movers:    movers,
		Gateways:  []network.NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestReachSetQueueDrainsDeepChain pins the BFS queue semantics: a
// maximally deep propagation (every node's route chains through its
// predecessor toward the single gateway) must mark the entire chain. This
// exercises the head-indexed queue through n-1 pops with the queue growing
// while it drains — the pattern the old queue = queue[1:] form handled by
// keeping the whole backing array alive per pop.
func TestReachSetQueueDrainsDeepChain(t *testing.T) {
	const n = 120
	w := chainWorld(t, n)
	ts := NewTables(n, 1)
	for u := 1; u < n; u++ {
		ts.Update(NodeID(u), Entry{
			Gateway: 0, NextHop: NodeID(u - 1), Hops: u, Updated: 1,
		})
	}
	reach := ReachSet(w, ts)
	for u := 0; u < n; u++ {
		if !reach[u] {
			t.Fatalf("node %d should chain to the gateway", u)
		}
	}
	// Break one link's entry mid-chain: everything past it must drop out.
	ts.Update(60, Entry{Gateway: 0, NextHop: 60, Hops: 1, Updated: 2})
	reach = ReachSet(w, ts)
	for u := 0; u < n; u++ {
		want := u < 60
		if u == 0 {
			want = true
		}
		if reach[u] != want {
			t.Fatalf("after cut: reach[%d] = %v, want %v", u, reach[u], want)
		}
	}
}

// TestScratchReachSetMatchesFresh reuses one Scratch across many calls and
// checks every result against the allocation-per-call package form.
func TestScratchReachSetMatchesFresh(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 23)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(5)
	var scratch Scratch
	for trial := 0; trial < 25; trial++ {
		ts := randomTables(w, s, s.Float64())
		got := scratch.ReachSet(w, ts)
		want := ReachSet(w, ts)
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("trial %d: scratch[%d] = %v, fresh = %v", trial, u, got[u], want[u])
			}
		}
		if gc, fc := scratch.Connectivity(w, ts), Connectivity(w, ts); gc != fc {
			t.Fatalf("trial %d: scratch connectivity %v != fresh %v", trial, gc, fc)
		}
		w.Step()
	}
}

// TestScratchReachSetZeroAllocs enforces the allocation budget: after
// warmup, the scratch-buffered reach set must not allocate at all.
func TestScratchReachSetZeroAllocs(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 29)
	if err != nil {
		t.Fatal(err)
	}
	ts := randomTables(w, rng.New(8), 0.9)
	var scratch Scratch
	scratch.ReachSet(w, ts) // size the buffers
	avg := testing.AllocsPerRun(50, func() {
		scratch.ReachSet(w, ts)
	})
	if avg != 0 {
		t.Fatalf("Scratch.ReachSet allocates %v per run, want 0", avg)
	}
	avg = testing.AllocsPerRun(50, func() {
		scratch.Connectivity(w, ts)
	})
	if avg != 0 {
		t.Fatalf("Scratch.Connectivity allocates %v per run, want 0", avg)
	}
}
