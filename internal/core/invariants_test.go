package core

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stigmergy"
)

// TestInvariantDecideReturnsCandidate: whatever the policy, memory state,
// or footprints, the decision is always drawn from the candidate set.
func TestInvariantDecideReturnsCandidate(t *testing.T) {
	kinds := []PolicyKind{PolicyRandom, PolicyConscientious, PolicySuperConscientious, PolicyOldestNode}
	f := func(seed uint64) bool {
		s := rng.New(seed)
		kind := kinds[s.Intn(len(kinds))]
		a, err := New(Config{
			ID: int(seed % 1000), Kind: kind, NetworkSize: 30,
			Stigmergy:     s.Bool(0.5),
			VisitCapacity: s.Intn(10),
			Epsilon:       s.Float64() * 0.5,
			Stream:        s.Child(1),
		})
		if err != nil {
			return false
		}
		board := stigmergy.NewBoard(30, 2)
		for step := 0; step < 30; step++ {
			n := 1 + s.Intn(6)
			cands := make([]NodeID, 0, n)
			seen := map[NodeID]bool{}
			for len(cands) < n {
				c := NodeID(s.Intn(30))
				if !seen[c] {
					seen[c] = true
					cands = append(cands, c)
				}
			}
			next := a.Decide(board, step, cands)
			if !seen[next] {
				return false
			}
			a.MoveTo(next, false)
			a.RecordHere(step)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantMergedAgentsStayIdentical: once two visit-sharing agents
// meet, and as long as they keep co-locating and observing the same
// candidates, they decide identically forever — the lockstep behind the
// paper's Figs 5/11.
func TestInvariantMergedAgentsStayIdentical(t *testing.T) {
	mk := func(id int) *Agent {
		a, err := New(Config{
			ID: id, Kind: PolicySuperConscientious, NetworkSize: 20,
			ShareTopology: true, Stream: rng.New(uint64(id)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := mk(1), mk(2)
	// Give them different histories first.
	a.Visits.Record(3, 1)
	b.Visits.Record(7, 2)
	ExchangeTopology([]*Agent{a, b})
	s := rng.New(5)
	for step := 10; step < 60; step++ {
		cands := []NodeID{NodeID(s.Intn(20)), NodeID(s.Intn(20) + 0), NodeID(s.Intn(20))}
		na := a.Decide(nil, step, cands)
		nb := b.Decide(nil, step, cands)
		if na != nb {
			t.Fatalf("step %d: merged agents diverged: %d vs %d", step, na, nb)
		}
		a.MoveTo(na, false)
		b.MoveTo(nb, false)
		a.RecordHere(step)
		b.RecordHere(step)
	}
}

// TestInvariantExchangeTopologyUnion: after a meeting, every sharer knows
// the union of what the group knew before — no more, no less.
func TestInvariantExchangeTopologyUnion(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		n := 10 + s.Intn(20)
		g := 2 + s.Intn(4)
		agents := make([]*Agent, g)
		before := make([][]bool, g)
		for i := range agents {
			a, err := New(Config{
				ID: i, Kind: PolicyConscientious, NetworkSize: n,
				ShareTopology: true, Stream: s.Child(uint64(i)),
			})
			if err != nil {
				return false
			}
			before[i] = make([]bool, n)
			for u := 0; u < n; u++ {
				if s.Bool(0.3) {
					a.Topo.LearnFirstHand(NodeID(u), nil)
					before[i][u] = true
				}
			}
			agents[i] = a
		}
		union := make([]bool, n)
		for _, b := range before {
			for u, known := range b {
				union[u] = union[u] || known
			}
		}
		ExchangeTopology(agents)
		for _, a := range agents {
			for u := 0; u < n; u++ {
				if a.Topo.Knows(NodeID(u)) != union[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantExchangeRoutesBestWins: after a routing meeting, every
// sharer's trail is at least as good as the best pre-meeting trail allows.
func TestInvariantExchangeRoutesBestWins(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		g := 2 + s.Intn(4)
		agents := make([]*Agent, g)
		bestHops := -1
		for i := range agents {
			a, err := New(Config{
				ID: i, Kind: PolicyRandom, NetworkSize: 40,
				ShareRoutes: true, TrailCapacity: 16, Stream: s.Child(uint64(i)),
			})
			if err != nil {
				return false
			}
			// Random walk, maybe through a gateway.
			sawGW := s.Bool(0.7)
			if sawGW {
				a.MoveTo(NodeID(s.Intn(40)), true)
			}
			hops := s.Intn(6)
			for h := 0; h < hops; h++ {
				a.MoveTo(NodeID(s.Intn(40)), false)
			}
			// All meet at node 39.
			a.MoveTo(39, false)
			if a.Trail.Anchored() {
				if bestHops < 0 || a.Trail.Hops() < bestHops {
					bestHops = a.Trail.Hops()
				}
			}
			agents[i] = a
		}
		ExchangeRoutes(agents)
		for _, a := range agents {
			if bestHops < 0 {
				if a.Trail.Anchored() {
					return false // route appeared from nowhere
				}
				continue
			}
			if !a.Trail.Anchored() || a.Trail.Hops() > bestHops {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
