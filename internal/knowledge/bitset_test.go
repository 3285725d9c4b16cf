package knowledge

import (
	"testing"

	"repro/internal/rng"
)

// learnTape builds a topology over n nodes where every node u with
// u % stride == phase is known with a small neighbour list.
func learnTape(n, stride, phase int) *Topology {
	k := NewTopology(n)
	for u := phase; u < n; u += stride {
		k.LearnFirstHand(NodeID(u), []NodeID{NodeID((u + 1) % n), NodeID((u + 2) % n)})
	}
	return k
}

// TestKnownMaskTracksSources pins the bitset invariant: bit u of the
// known mask is set exactly when SourceOf(u) != Unknown, across a random
// mix of first- and second-hand learning and resets.
func TestKnownMaskTracksSources(t *testing.T) {
	s := rng.New(99)
	const n = 130 // spans three mask words, last one partial
	k := NewTopology(n)
	check := func() {
		t.Helper()
		mask := k.KnownMask()
		if len(mask) != (n+63)/64 {
			t.Fatalf("mask has %d words, want %d", len(mask), (n+63)/64)
		}
		count := 0
		for u := 0; u < n; u++ {
			bit := mask[u>>6]&(1<<(uint(u)&63)) != 0
			if bit != k.Knows(NodeID(u)) {
				t.Fatalf("node %d: mask bit %v but Knows %v", u, bit, k.Knows(NodeID(u)))
			}
			if k.Knows(NodeID(u)) {
				count++
			}
		}
		if count != k.KnownCount() {
			t.Fatalf("KnownCount %d, mask has %d set bits", k.KnownCount(), count)
		}
	}
	for op := 0; op < 500; op++ {
		u := NodeID(s.Intn(n))
		if s.Bool(0.5) {
			k.LearnFirstHand(u, []NodeID{NodeID((u + 1) % n)})
		} else {
			k.LearnSecondHand(u, []NodeID{NodeID((u + 2) % n)})
		}
		if op%97 == 0 {
			check()
		}
	}
	check()
	k.Reset(n)
	if k.KnownCount() != 0 {
		t.Fatalf("KnownCount %d after Reset, want 0", k.KnownCount())
	}
	check()
}

// TestResetBehavesLikeFresh checks a recycled topology is observationally
// identical to a freshly allocated one.
func TestResetBehavesLikeFresh(t *testing.T) {
	used := learnTape(100, 2, 0)
	used.Reset(100)
	fresh := NewTopology(100)
	src := learnTape(100, 3, 1)
	if got, want := used.MergeFrom(src), fresh.MergeFrom(src); got != want {
		t.Fatalf("MergeFrom moved %d records into reset topology, %d into fresh", got, want)
	}
	for u := 0; u < 100; u++ {
		if used.SourceOf(NodeID(u)) != fresh.SourceOf(NodeID(u)) {
			t.Fatalf("node %d: source %v (reset) vs %v (fresh)", u,
				used.SourceOf(NodeID(u)), fresh.SourceOf(NodeID(u)))
		}
	}
	// Resizing across Reset must work in both directions.
	used.Reset(40)
	if used.N() != 40 || used.KnownCount() != 0 {
		t.Fatalf("Reset(40): N=%d known=%d", used.N(), used.KnownCount())
	}
	used.Reset(256)
	if used.N() != 256 || used.Fraction() != 0 {
		t.Fatalf("Reset(256): N=%d fraction=%v", used.N(), used.Fraction())
	}
}

// TestMergeFromZeroAllocs enforces the word-parallel MergeFrom allocation
// budget: once the destination's per-node lists have storage for the
// working set, a Reset + full re-merge cycle allocates nothing.
func TestMergeFromZeroAllocs(t *testing.T) {
	const n = 300
	evens := learnTape(n, 2, 0)
	odds := learnTape(n, 2, 1)
	dst := NewTopology(n)
	dst.MergeFrom(evens)
	dst.MergeFrom(odds) // warm every per-node list
	avg := testing.AllocsPerRun(200, func() {
		dst.Reset(n)
		if dst.MergeFrom(evens)+dst.MergeFrom(odds) != n {
			t.Fatal("merge did not transfer every record")
		}
	})
	if avg > 0 {
		t.Fatalf("Reset+MergeFrom allocates %v per cycle, want 0", avg)
	}
	// A no-op merge (nothing transferable) must also be allocation-free.
	avg = testing.AllocsPerRun(200, func() {
		if dst.MergeFrom(evens) != 0 {
			t.Fatal("no-op merge moved records")
		}
	})
	if avg > 0 {
		t.Fatalf("no-op MergeFrom allocates %v per call, want 0", avg)
	}
}

// TestCloneAllocBudget pins the flat-backed Clone cost: five allocations
// (struct, sources, mask, adjacency index, one packed edge array) no
// matter how many nodes are known.
func TestCloneAllocBudget(t *testing.T) {
	k := learnTape(400, 1, 0)
	avg := testing.AllocsPerRun(100, func() { _ = k.Clone() })
	if avg > 5 {
		t.Fatalf("Clone allocates %v times, want <= 5", avg)
	}
	// And the clone must still be correct and independent.
	c := k.Clone()
	c.LearnFirstHand(0, []NodeID{9, 8, 7, 6, 5})
	if len(k.Neighbors(0)) != 2 {
		t.Fatal("mutating a clone leaked into the original")
	}
}

// TestTopologyNeighborIndexAllocatedOnFirstLearn checks the lazily
// allocated neighbour-list index: a topology that never learns (a routing
// agent's) costs only its source tags and mask, and every operation on it
// — Neighbors, Clone, Reset, MergeFrom in either direction —
// behaves as on a topology whose index exists.
func TestTopologyNeighborIndexAllocatedOnFirstLearn(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() { _ = NewTopology(1000) }); avg > 3 {
		t.Fatalf("NewTopology allocates %v times, want <= 3 (struct, sources, mask)", avg)
	}
	empty := NewTopology(10)
	if empty.Neighbors(3) != nil {
		t.Fatal("empty topology reports neighbours")
	}
	if empty.MergeFrom(NewTopology(10)) != 0 {
		t.Fatal("merging two empty topologies moved records")
	}
	c := empty.Clone()
	c.LearnFirstHand(3, []NodeID{4, 5})
	if len(c.Neighbors(3)) != 2 || empty.Neighbors(3) != nil || empty.KnownCount() != 0 {
		t.Fatal("learning in a clone of an empty topology failed or leaked")
	}
	if empty.MergeFrom(c) != 1 || len(empty.Neighbors(3)) != 2 || empty.SourceOf(3) != SecondHand {
		t.Fatal("empty topology did not learn from a peer")
	}
	// Shrinking Reset keeps the index; growing Reset drops it until the
	// next learn. Either way the result behaves like a fresh topology.
	empty.Reset(5)
	if len(empty.Neighbors(3)) != 0 {
		t.Fatal("Reset kept a neighbour list")
	}
	empty.Reset(50)
	if empty.Neighbors(40) != nil {
		t.Fatal("grown Reset reports neighbours")
	}
	empty.LearnSecondHand(40, []NodeID{1})
	if empty.N() != 50 || empty.KnownCount() != 1 || len(empty.Neighbors(40)) != 1 {
		t.Fatal("learning after a grown Reset failed")
	}
}
