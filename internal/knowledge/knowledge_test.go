package knowledge

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTopologyLearnFirstHand(t *testing.T) {
	k := NewTopology(5)
	if k.KnownCount() != 0 || k.Complete() || k.Fraction() != 0 {
		t.Fatal("fresh knowledge not empty")
	}
	k.LearnFirstHand(2, []NodeID{0, 1})
	if !k.Knows(2) || k.SourceOf(2) != FirstHand || k.KnownCount() != 1 {
		t.Fatal("learn failed")
	}
	if got := k.Neighbors(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("neighbors = %v", got)
	}
	// Relearning the same node doesn't double count.
	k.LearnFirstHand(2, []NodeID{3})
	if k.KnownCount() != 1 || len(k.Neighbors(2)) != 1 {
		t.Fatal("relearn mishandled")
	}
}

func TestTopologyFractionAndComplete(t *testing.T) {
	k := NewTopology(4)
	for i := 0; i < 4; i++ {
		k.LearnFirstHand(NodeID(i), nil)
	}
	if !k.Complete() || k.Fraction() != 1 {
		t.Fatal("complete detection failed")
	}
	empty := NewTopology(0)
	if !empty.Complete() || empty.Fraction() != 1 {
		t.Fatal("empty network should be trivially complete")
	}
}

func TestTopologyMerge(t *testing.T) {
	a, b := NewTopology(4), NewTopology(4)
	a.LearnFirstHand(0, []NodeID{1})
	b.LearnFirstHand(1, []NodeID{2})
	b.LearnFirstHand(0, []NodeID{3}) // conflicting view of node 0

	moved := a.MergeFrom(b)
	if moved != 1 {
		t.Fatalf("moved = %d, want 1 (only node 1)", moved)
	}
	if a.SourceOf(1) != SecondHand {
		t.Fatal("merged knowledge should be second-hand")
	}
	// First-hand view of node 0 must not be overwritten by hearsay.
	if got := a.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("first-hand overwritten: %v", got)
	}
	// Second merge is a no-op.
	if again := a.MergeFrom(b); again != 0 {
		t.Fatalf("idempotence violated: %d", again)
	}
}

func TestTopologyMergeMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		n := 3 + s.Intn(20)
		mk := func() *Topology {
			k := NewTopology(n)
			for i := 0; i < n; i++ {
				if s.Bool(0.5) {
					k.LearnFirstHand(NodeID(i), []NodeID{NodeID(s.Intn(n))})
				}
			}
			return k
		}
		a, b := mk(), mk()
		beforeA := a.KnownCount()
		a.MergeFrom(b)
		if a.KnownCount() < beforeA {
			return false
		}
		// Everything b knows, a now knows.
		for i := 0; i < n; i++ {
			if b.Knows(NodeID(i)) && !a.Knows(NodeID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyMergeCommutativeOnKnownSets(t *testing.T) {
	// The set of known nodes after a∪b equals b∪a even though sources may
	// differ.
	s := rng.New(12)
	n := 15
	mk := func() *Topology {
		k := NewTopology(n)
		for i := 0; i < n; i++ {
			if s.Bool(0.4) {
				k.LearnFirstHand(NodeID(i), nil)
			}
		}
		return k
	}
	a1, b1 := mk(), mk()
	a2, b2 := a1.Clone(), b1.Clone()
	a1.MergeFrom(b1)
	b2.MergeFrom(a2)
	if a1.KnownCount() != b2.KnownCount() {
		t.Fatalf("union sizes differ: %d vs %d", a1.KnownCount(), b2.KnownCount())
	}
	for i := 0; i < n; i++ {
		if a1.Knows(NodeID(i)) != b2.Knows(NodeID(i)) {
			t.Fatalf("union membership differs at %d", i)
		}
	}
}

func TestTopologyCloneIndependent(t *testing.T) {
	k := NewTopology(3)
	k.LearnFirstHand(0, []NodeID{1, 2})
	c := k.Clone()
	c.LearnFirstHand(1, nil)
	if k.Knows(1) {
		t.Fatal("clone mutated original")
	}
	adj := c.Neighbors(0)
	adj[0] = 99
	if k.Neighbors(0)[0] == 99 {
		t.Fatal("clone shares adjacency storage")
	}
}

func TestVisitsRecordAndLast(t *testing.T) {
	v := NewVisits(0)
	if _, ok := v.Last(3); ok {
		t.Fatal("fresh memory remembers")
	}
	v.Record(3, 10)
	if s, ok := v.Last(3); !ok || s != 10 {
		t.Fatalf("Last = %d,%v", s, ok)
	}
	v.Record(3, 20)
	if s, _ := v.Last(3); s != 20 {
		t.Fatalf("newer visit not recorded: %d", s)
	}
	// Stale record never rolls back.
	v.Record(3, 5)
	if s, _ := v.Last(3); s != 20 {
		t.Fatalf("stale record rolled back to %d", s)
	}
}

func TestVisitsBounded(t *testing.T) {
	v := NewVisits(3)
	for i := 0; i < 10; i++ {
		v.Record(NodeID(i), i)
	}
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	// The three most recent survive.
	for i := 7; i < 10; i++ {
		if _, ok := v.Last(NodeID(i)); !ok {
			t.Fatalf("recent visit %d evicted", i)
		}
	}
	for i := 0; i < 7; i++ {
		if _, ok := v.Last(NodeID(i)); ok {
			t.Fatalf("old visit %d survived", i)
		}
	}
}

func TestVisitsEvictionDeterministicTies(t *testing.T) {
	// All entries share a step; eviction must pick the smallest node ID.
	run := func() []bool {
		v := NewVisits(3)
		v.Record(5, 1)
		v.Record(2, 1)
		v.Record(9, 1)
		v.Record(7, 2) // forces one eviction
		out := make([]bool, 10)
		for i := 0; i < 10; i++ {
			_, out[i] = v.Last(NodeID(i))
		}
		return out
	}
	a := run()
	for trial := 0; trial < 20; trial++ {
		b := run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("eviction nondeterministic across runs")
			}
		}
	}
	if got := run(); got[2] {
		t.Fatal("tie should evict smallest node ID (2)")
	}
}

func TestVisitsMerge(t *testing.T) {
	a, b := NewVisits(0), NewVisits(0)
	a.Record(1, 10)
	a.Record(2, 5)
	b.Record(2, 8)
	b.Record(3, 1)
	changed := a.MergeFrom(b)
	if changed != 2 {
		t.Fatalf("changed = %d, want 2", changed)
	}
	if s, _ := a.Last(2); s != 8 {
		t.Fatalf("merge should take max: %d", s)
	}
	if s, _ := a.Last(1); s != 10 {
		t.Fatalf("merge damaged unrelated entry: %d", s)
	}
	if _, ok := a.Last(3); !ok {
		t.Fatal("merge dropped new entry")
	}
	// Merging into a bounded memory respects the bound.
	c := NewVisits(2)
	c.Record(9, 100)
	c.MergeFrom(a)
	if c.Len() > 2 {
		t.Fatalf("bounded merge overflowed: %d", c.Len())
	}
}

func TestVisitsMergeIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		a, b := NewVisits(0), NewVisits(0)
		for i := 0; i < 20; i++ {
			if s.Bool(0.5) {
				a.Record(NodeID(s.Intn(10)), s.Intn(100))
			}
			if s.Bool(0.5) {
				b.Record(NodeID(s.Intn(10)), s.Intn(100))
			}
		}
		a.MergeFrom(b)
		return a.MergeFrom(b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTrailBasics(t *testing.T) {
	tr := NewTrail(5)
	if tr.Anchored() || tr.Len() != 0 || tr.Current() != -1 || tr.Gateway() != -1 {
		t.Fatal("fresh trail state wrong")
	}
	tr.ResetAt(7)
	if !tr.Anchored() || tr.Gateway() != 7 || tr.Hops() != 0 || tr.Current() != 7 {
		t.Fatal("ResetAt state wrong")
	}
	tr.Extend(3)
	tr.Extend(4)
	if tr.Hops() != 2 || tr.Current() != 4 {
		t.Fatalf("hops=%d current=%d", tr.Hops(), tr.Current())
	}
	hop, ok := tr.NextHopBack()
	if !ok || hop != 3 {
		t.Fatalf("NextHopBack = %d,%v", hop, ok)
	}
}

func TestTrailCapacityMinimum(t *testing.T) {
	tr := NewTrail(0)
	if tr.Capacity() != 2 {
		t.Fatalf("capacity = %d, want raised to 2", tr.Capacity())
	}
}

func TestTrailOverflowLosesAnchor(t *testing.T) {
	tr := NewTrail(3)
	tr.ResetAt(0)
	tr.Extend(1)
	tr.Extend(2)
	if !tr.Anchored() {
		t.Fatal("should still be anchored at capacity")
	}
	tr.Extend(3) // drops gateway 0
	if tr.Anchored() {
		t.Fatal("anchor should be lost on overflow")
	}
	if tr.Hops() != -1 || tr.Gateway() != -1 {
		t.Fatal("unanchored trail should report no route")
	}
	if _, ok := tr.NextHopBack(); ok {
		t.Fatal("unanchored trail offered a next hop")
	}
	// Visiting a gateway re-anchors.
	tr.ResetAt(9)
	if !tr.Anchored() || tr.Hops() != 0 {
		t.Fatal("re-anchor failed")
	}
}

func TestTrailLoopCompaction(t *testing.T) {
	tr := NewTrail(10)
	tr.ResetAt(0)
	tr.Extend(1)
	tr.Extend(2)
	tr.Extend(1) // loop back to 1: trail becomes 0,1
	if tr.Hops() != 1 || tr.Current() != 1 {
		t.Fatalf("loop not compacted: hops=%d current=%d nodes=%v", tr.Hops(), tr.Current(), tr.Nodes())
	}
	// Revisiting the gateway compacts to just the gateway.
	tr.Extend(0)
	if tr.Hops() != 0 || !tr.Anchored() {
		t.Fatalf("gateway revisit not compacted: %v", tr.Nodes())
	}
}

func TestTrailBetterThan(t *testing.T) {
	short := NewTrail(5)
	short.ResetAt(0)
	short.Extend(1)
	long := NewTrail(5)
	long.ResetAt(0)
	long.Extend(2)
	long.Extend(3)
	unanchored := NewTrail(5)
	if !short.BetterThan(long) || long.BetterThan(short) {
		t.Fatal("hop comparison wrong")
	}
	if !short.BetterThan(unanchored) || unanchored.BetterThan(short) {
		t.Fatal("anchored should beat unanchored")
	}
	if unanchored.BetterThan(unanchored) {
		t.Fatal("unanchored never better")
	}
}

func TestTrailCopyFrom(t *testing.T) {
	src := NewTrail(10)
	src.ResetAt(0)
	for i := 1; i <= 4; i++ {
		src.Extend(NodeID(i))
	}
	dst := NewTrail(10)
	dst.CopyFrom(src)
	if dst.Hops() != 4 || dst.Gateway() != 0 || dst.Current() != 4 {
		t.Fatalf("copy wrong: %v", dst.Nodes())
	}
	// Copy into a smaller trail truncates and unanchors.
	small := NewTrail(3)
	small.CopyFrom(src)
	if small.Len() != 3 || small.Anchored() {
		t.Fatalf("truncating copy wrong: %v anchored=%v", small.Nodes(), small.Anchored())
	}
	// Copies are independent.
	dst.Extend(9)
	if src.Current() == 9 {
		t.Fatal("copy shares storage")
	}
}

func TestTrailNodesCopy(t *testing.T) {
	tr := NewTrail(5)
	tr.ResetAt(1)
	nodes := tr.Nodes()
	nodes[0] = 42
	if tr.Gateway() != 1 {
		t.Fatal("Nodes leaked internal storage")
	}
}

func TestMergeAllUnboundedMembersBecomeIdentical(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		g := 2 + s.Intn(4)
		ms := make([]*Visits, g)
		for i := range ms {
			ms[i] = NewVisits(0)
			for j := 0; j < s.Intn(20); j++ {
				ms[i].Record(NodeID(s.Intn(15)), s.Intn(50))
			}
		}
		MergeAll(ms)
		for u := NodeID(0); u < 15; u++ {
			s0, ok0 := ms[0].Last(u)
			for _, m := range ms[1:] {
				si, oki := m.Last(u)
				if ok0 != oki || (ok0 && s0 != si) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeAllTakesUnionMax(t *testing.T) {
	a, b := NewVisits(0), NewVisits(0)
	a.Record(1, 10)
	a.Record(2, 5)
	b.Record(2, 8)
	b.Record(3, 1)
	changed := MergeAll([]*Visits{a, b})
	if s, _ := a.Last(2); s != 8 {
		t.Fatalf("union max wrong: %d", s)
	}
	if s, _ := b.Last(1); s != 10 {
		t.Fatalf("b missing a's record: %d", s)
	}
	// a gained node 3 and refreshed node 2; b gained node 1.
	if changed[0] != 2 || changed[1] != 1 {
		t.Fatalf("changed = %v", changed)
	}
}

func TestMergeAllRespectsCapacity(t *testing.T) {
	small := NewVisits(2)
	big := NewVisits(0)
	for i := 0; i < 10; i++ {
		big.Record(NodeID(i), i)
	}
	MergeAll([]*Visits{small, big})
	if small.Len() != 2 {
		t.Fatalf("bounded member holds %d", small.Len())
	}
	// It keeps the freshest records.
	for _, u := range []NodeID{8, 9} {
		if _, ok := small.Last(u); !ok {
			t.Fatalf("freshest record %d missing", u)
		}
	}
	if big.Len() != 10 {
		t.Fatalf("unbounded member lost records: %d", big.Len())
	}
}

func TestMergeAllIdempotent(t *testing.T) {
	a, b := NewVisits(0), NewVisits(0)
	a.Record(1, 5)
	b.Record(2, 7)
	MergeAll([]*Visits{a, b})
	changed := MergeAll([]*Visits{a, b})
	if changed[0] != 0 || changed[1] != 0 {
		t.Fatalf("second merge changed records: %v", changed)
	}
}

func TestTrailExtendAlwaysEndsAtArgument(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		tr := NewTrail(2 + s.Intn(10))
		tr.ResetAt(NodeID(s.Intn(5)))
		for i := 0; i < 40; i++ {
			v := NodeID(s.Intn(12))
			tr.Extend(v)
			if tr.Current() != v {
				return false
			}
			if tr.Len() > tr.Capacity() {
				return false
			}
			// Anchored trails always report hops = len-1.
			if tr.Anchored() && tr.Hops() != tr.Len()-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTrailNoDuplicateNodes(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		tr := NewTrail(16)
		tr.ResetAt(0)
		for i := 0; i < 60; i++ {
			tr.Extend(NodeID(s.Intn(10)))
		}
		seen := map[NodeID]bool{}
		for _, u := range tr.Nodes() {
			if seen[u] {
				return false
			}
			seen[u] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
