package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// chain builds 0→1→…→n-1.
func chain(n int) *Directed {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

// cycle builds a directed n-cycle.
func cycle(n int) *Directed {
	g := chain(n)
	g.AddEdge(NodeID(n-1), 0)
	return g
}

// random builds a random directed graph with edge probability p.
func random(n int, p float64, seed uint64) *Directed {
	s := rng.New(seed)
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && s.Bool(p) {
				g.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return g
}

func TestAddEdge(t *testing.T) {
	g := New(3)
	if !g.AddEdge(0, 1) {
		t.Fatal("first insert rejected")
	}
	if g.AddEdge(0, 1) {
		t.Fatal("duplicate accepted")
	}
	if g.AddEdge(1, 1) {
		t.Fatal("self-loop accepted")
	}
	if g.M() != 1 || !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatalf("edge state wrong: m=%d", g.M())
	}
}

func TestOutInConsistent(t *testing.T) {
	g := random(30, 0.2, 7)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(NodeID(u)) {
			found := false
			for _, w := range g.In(v) {
				if w == NodeID(u) {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from In(%d)", u, v, v)
			}
		}
	}
	inCount := 0
	for v := 0; v < g.N(); v++ {
		inCount += len(g.In(NodeID(v)))
	}
	if inCount != g.M() {
		t.Fatalf("in-edge total %d != M %d", inCount, g.M())
	}
}

func TestInInvalidatedByAddEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	_ = g.In(1)
	g.AddEdge(2, 1)
	if len(g.In(1)) != 2 {
		t.Fatal("In not invalidated after AddEdge")
	}
}

func TestBFSChain(t *testing.T) {
	g := chain(5)
	dist := g.BFSFrom(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	back := g.BFSFrom(4)
	for i := 0; i < 4; i++ {
		if back[i] != -1 {
			t.Fatalf("chain is one-way; dist[%d] from 4 = %d", i, back[i])
		}
	}
}

func TestReachableFrom(t *testing.T) {
	g := chain(4)
	g.AddEdge(2, 0) // small cycle among 0,1,2
	seen := g.ReachableFrom(1)
	for i, want := range []bool{true, true, true, true} {
		if seen[i] != want {
			t.Fatalf("reach[%d] = %v", i, seen[i])
		}
	}
	seen = g.ReachableFrom(3)
	if seen[0] || seen[1] || seen[2] || !seen[3] {
		t.Fatalf("node 3 should reach only itself: %v", seen)
	}
}

func TestCanReachSet(t *testing.T) {
	// 0→1→2, 3→2, 4 isolated; targets {2}
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 2)
	got := g.CanReachSet([]NodeID{2})
	want := []bool{true, true, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CanReachSet[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCanReachSetMultipleTargets(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	got := g.CanReachSet([]NodeID{1, 3, 3})
	want := []bool{true, true, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("idx %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// canReachSetBrute is the O(N·(N+M)) reference: forward search per node.
func canReachSetBrute(g *Directed, targets []NodeID) []bool {
	tset := make([]bool, g.N())
	for _, t := range targets {
		tset[t] = true
	}
	out := make([]bool, g.N())
	for u := 0; u < g.N(); u++ {
		seen := g.ReachableFrom(NodeID(u))
		for v, ok := range seen {
			if ok && tset[v] {
				out[u] = true
				break
			}
		}
	}
	return out
}

func TestCanReachSetMatchesBrute(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		s := rng.New(seed + 100)
		n := 5 + s.Intn(40)
		g := random(n, 0.08, seed)
		k := 1 + s.Intn(4)
		targets := make([]NodeID, k)
		for i := range targets {
			targets[i] = NodeID(s.Intn(n))
		}
		got := g.CanReachSet(targets)
		want := canReachSetBrute(g, targets)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d node %d: got %v want %v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestStronglyConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Directed
		want bool
	}{
		{"empty", New(0), true},
		{"single", New(1), true},
		{"chain", chain(4), false},
		{"cycle", cycle(4), true},
		{"two nodes one edge", func() *Directed { g := New(2); g.AddEdge(0, 1); return g }(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.StronglyConnected(); got != tt.want {
				t.Fatalf("StronglyConnected = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSCCsPartition(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%40)
		g := random(n, 0.1, seed)
		comps := g.SCCs()
		seen := make([]int, n)
		for _, c := range comps {
			if len(c) == 0 {
				return false
			}
			for _, v := range c {
				seen[v]++
			}
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCsMutualReachability(t *testing.T) {
	g := random(25, 0.12, 9)
	for _, comp := range g.SCCs() {
		if len(comp) < 2 {
			continue
		}
		base := comp[0]
		reach := g.ReachableFrom(base)
		back := g.CanReachSet([]NodeID{base})
		for _, v := range comp[1:] {
			if !reach[v] || !back[v] {
				t.Fatalf("component members %d and %d not mutually reachable", base, v)
			}
		}
	}
}

func TestSCCsCycleIsOneComponent(t *testing.T) {
	g := cycle(7)
	comps := g.SCCs()
	if len(comps) != 1 || len(comps[0]) != 7 {
		t.Fatalf("cycle SCCs = %v", comps)
	}
}

func TestLargestSCC(t *testing.T) {
	// cycle of 4 (0-3) plus a chain 4→5.
	g := New(6)
	for i := 0; i < 4; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%4))
	}
	g.AddEdge(4, 5)
	big := g.LargestSCC()
	if len(big) != 4 {
		t.Fatalf("largest SCC size = %d, want 4", len(big))
	}
}

func TestCloneIndependent(t *testing.T) {
	g := cycle(3)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.AddEdge(0, 2)
	if g.Equal(c) {
		t.Fatal("mutating clone affected equality")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("mutating clone mutated original")
	}
}

func TestEqual(t *testing.T) {
	a, b := cycle(3), cycle(3)
	if !a.Equal(b) {
		t.Fatal("identical graphs unequal")
	}
	if a.Equal(New(4)) {
		t.Fatal("different sizes equal")
	}
	c := New(3)
	c.AddEdge(0, 1)
	c.AddEdge(1, 2)
	c.AddEdge(0, 2)
	if a.Equal(c) {
		t.Fatal("different edge sets equal")
	}
}

func TestOutDegreeStats(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	st := g.OutDegreeStats()
	if st.Min != 0 || st.Max != 2 || st.Mean != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if (New(0).OutDegreeStats() != DegreeStats{}) {
		t.Fatal("empty graph stats should be zero")
	}
}

func TestDiffEdges(t *testing.T) {
	a := cycle(4)
	b := a.Clone()
	if DiffEdges(a, b) != 0 {
		t.Fatal("identical graphs differ")
	}
	b.AddEdge(0, 2)
	if got := DiffEdges(a, b); got != 1 {
		t.Fatalf("DiffEdges = %d, want 1", got)
	}
	if got := DiffEdges(b, a); got != 1 {
		t.Fatalf("DiffEdges asymmetric: %d", got)
	}
}

func TestDiffEdgesPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DiffEdges(New(2), New(3))
}

func TestSortAdjacency(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.SortAdjacency()
	adj := g.Out(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("adjacency not sorted: %v", adj)
		}
	}
}

func BenchmarkCanReachSet300(b *testing.B) {
	g := random(300, 0.025, 5)
	targets := []NodeID{3, 77, 150, 222}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CanReachSet(targets)
	}
}

func BenchmarkSCCs300(b *testing.B) {
	g := random(300, 0.025, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.SCCs()
	}
}

func TestDiameter(t *testing.T) {
	d, ok := chain(5).Diameter()
	if !ok {
		// A one-way chain is not strongly connected.
		t.Log("chain correctly reported disconnected")
	}
	if d != 4 {
		t.Fatalf("chain diameter = %d, want 4", d)
	}
	d, ok = cycle(6).Diameter()
	if !ok || d != 5 {
		t.Fatalf("cycle diameter = %d connected=%v, want 5 true", d, ok)
	}
	d, ok = New(1).Diameter()
	if !ok || d != 0 {
		t.Fatalf("singleton diameter = %d connected=%v", d, ok)
	}
}

// TestOwnRowsPreservesContent pins that OwnRows is content-neutral and
// actually unshares CSR storage: mutating one row afterwards cannot bleed
// into a neighbouring row's slice.
func TestOwnRowsPreservesContent(t *testing.T) {
	g := New(3)
	g.Reset(3)
	g.SetOut(0, []NodeID{1, 2})
	g.SetOut(1, []NodeID{0})
	g.SetOut(2, []NodeID{0, 1})
	before := [][]NodeID{{1, 2}, {0}, {0, 1}}
	g.OwnRows(4)
	for u, adj := range before {
		got := g.Out(NodeID(u))
		if len(got) != len(adj) {
			t.Fatalf("Out(%d) = %v, want %v", u, got, adj)
		}
		for i := range adj {
			if got[i] != adj[i] {
				t.Fatalf("Out(%d) = %v, want %v", u, got, adj)
			}
		}
	}
	// Growing row 0 in place must leave row 1 untouched (disjoint storage).
	g.InsertEdgeSorted(0, 1) // duplicate, no-op
	for i := 0; i < 6; i++ {
		g.InsertEdgeSorted(1, NodeID(2))
		g.RemoveEdgeSorted(1, NodeID(2))
	}
	if got := g.Out(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("row 0 corrupted by row-1 surgery: %v", got)
	}
}
