package routing

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/rng"
)

// randomTables fills tables with arbitrary (possibly nonsensical) entries.
func randomTables(w *network.World, s *rng.Stream, density float64) *Tables {
	ts := NewTables(w.N(), 3)
	gws := w.Gateways()
	for u := 0; u < w.N(); u++ {
		if !s.Bool(density) {
			continue
		}
		ts.Update(NodeID(u), Entry{
			Gateway: gws[s.Intn(len(gws))],
			NextHop: NodeID(s.Intn(w.N())),
			Hops:    1 + s.Intn(10),
			Updated: s.Intn(100),
		})
	}
	return ts
}

// TestInvariantLocalDominatesEndToEnd: a node whose full chain reaches a
// gateway necessarily has a live first hop, so local connectivity can
// never be below end-to-end connectivity — even for adversarial tables.
func TestInvariantLocalDominatesEndToEnd(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(99)
	for trial := 0; trial < 30; trial++ {
		ts := randomTables(w, s, s.Float64())
		local := LocalConnectivity(w, ts)
		e2e := Connectivity(w, ts)
		if e2e > local+1e-12 {
			t.Fatalf("trial %d: end-to-end %v exceeds local %v", trial, e2e, local)
		}
		w.Step()
	}
}

// TestInvariantReachesImpliesReachSet: if single-best-entry forwarding
// delivers from u, then u must be in the any-entry reach set.
func TestInvariantReachesImpliesReachSet(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(7)
	visited := make([]bool, w.N())
	for trial := 0; trial < 20; trial++ {
		ts := randomTables(w, s, 0.8)
		reach := ReachSet(w, ts)
		for u := 0; u < w.N(); u++ {
			if Reaches(w, ts, NodeID(u), w.N(), visited) && !reach[u] {
				t.Fatalf("trial %d: node %d walks to a gateway but is outside ReachSet", trial, u)
			}
		}
		w.Step()
	}
}

// TestInvariantGatewaysAlwaysReach: gateways are trivially connected in
// both metrics' underlying sets.
func TestInvariantGatewaysAlwaysReach(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTables(w.N(), 1) // empty
	reach := ReachSet(w, ts)
	for _, g := range w.Gateways() {
		if !reach[g] {
			t.Fatalf("gateway %d not in its own reach set", g)
		}
	}
	visited := make([]bool, w.N())
	if !Reaches(w, ts, w.Gateways()[0], 10, visited) {
		t.Fatal("gateway does not Reach itself")
	}
}

// TestInvariantConnectivityMonotoneInEntries: adding a valid entry can
// only grow the reach set.
func TestInvariantConnectivityMonotoneInEntries(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 13)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(21)
	ts := NewTables(w.N(), 3)
	prev := Connectivity(w, ts)
	gws := w.Gateways()
	for i := 0; i < 200; i++ {
		// Insert a physically valid entry: next hop is a real neighbour.
		u := NodeID(s.Intn(w.N()))
		nbrs := w.Neighbors(u)
		if len(nbrs) == 0 {
			continue
		}
		ts.Update(u, Entry{
			Gateway: gws[s.Intn(len(gws))],
			NextHop: nbrs[s.Intn(len(nbrs))],
			Hops:    1 + s.Intn(5),
			Updated: 1000 + i, // strictly fresher each time, never evicted as stale
		})
		cur := Connectivity(w, ts)
		// Capacity-3 tables can evict, so strict monotonicity need not
		// hold; but with fresh timestamps eviction only replaces the
		// stalest of the SAME node, keeping its live-entry property.
		// The weaker invariant: connectivity never collapses to zero once
		// positive.
		if prev > 0 && cur == 0 {
			t.Fatalf("connectivity collapsed from %v to zero at insert %d", prev, i)
		}
		prev = cur
	}
	if prev == 0 {
		t.Fatal("200 valid entries produced zero connectivity")
	}
}

// TestInvariantRunMetricsBounded: every series value from a real run is a
// fraction, and EndToEnd ≤ Ideal pointwise.
func TestInvariantRunMetricsBounded(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, Scenario{Agents: 25, Kind: core.PolicyOldestNode, Steps: 120}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Connectivity {
		for _, v := range []float64{res.Connectivity[i], res.EndToEnd[i], res.Ideal[i]} {
			if v < 0 || v > 1 {
				t.Fatalf("step %d: metric %v out of [0,1]", i, v)
			}
		}
		if res.EndToEnd[i] > res.Ideal[i]+1e-9 {
			t.Fatalf("step %d: end-to-end %v above physical bound %v", i, res.EndToEnd[i], res.Ideal[i])
		}
	}
}
