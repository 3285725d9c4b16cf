package knowledge

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// TestVisitsMatchReferenceRandomized is FuzzVisitsOps's deterministic
// long-run twin: seeded random tapes of 12000 operations per capacity mix,
// each checked against the map-backed reference after every operation.
func TestVisitsMatchReferenceRandomized(t *testing.T) {
	const ops = 12000
	for _, caps := range [][4]int{
		{0, 0, 0, 0},
		{1, 2, 32, 0},
		{2, 2, 32, 32},
		{32, 1, 0, 2},
	} {
		t.Run(fmt.Sprint(caps), func(t *testing.T) {
			s := rng.New(uint64(caps[0]*1000 + caps[1]*100 + caps[2]*10 + caps[3] + 1))
			tape := make([]byte, 2*ops)
			for i := range tape {
				tape[i] = byte(s.Intn(256))
			}
			runVisitsTape(t, caps, tape)
		})
	}
	// Clumped tapes: one group re-merging after every round of records,
	// as cooperating agents do. A stated share of those merges must find
	// the group sharing one lineage token, or the lineage path goes
	// untested. Equal capacities keep most merges on it. Mixed ones leave
	// members different after most merges, so fewer share a token. A
	// capacity-1 memory drops its lineage on every move to a new node
	// (victim and newcomer outgrow its one record), so there only Clones
	// share one, and the mix checks the drop.
	for _, tc := range []struct {
		caps     [4]int
		minShare float64
	}{
		{[4]int{0, 0, 0, 0}, 0.5},
		{[4]int{32, 32, 32, 32}, 0.5},
		{[4]int{2, 2, 2, 2}, 0.4},
		{[4]int{1, 1, 1, 1}, 0},
		{[4]int{32, 0, 32, 2}, 0.03},
		{[4]int{2, 1, 0, 32}, 0.02},
	} {
		t.Run(fmt.Sprint("clumped", tc.caps), func(t *testing.T) {
			s := rng.New(uint64(tc.caps[0]*1000+tc.caps[1]*100+tc.caps[2]*10+tc.caps[3]) + 7)
			merges, shared := runVisitsTape(t, tc.caps, clumpedTape(s, 3000))
			share := float64(shared) / float64(merges)
			t.Logf("%d of %d merges shared a lineage token (%.2f)", shared, merges, share)
			if share < tc.minShare {
				t.Errorf("%d of %d merges shared a lineage token (%.2f), want at least %.2f",
					shared, merges, share, tc.minShare)
			}
		})
	}
}

// TestVisitsSteadyStateAllocs enforces the dense memory's allocation
// budget: recording into a full bounded memory (which evicts), looking a
// node up, and a warmed MergeScratch.MergeAll over bounded and unbounded
// groups all allocate nothing.
func TestVisitsSteadyStateAllocs(t *testing.T) {
	const n = 300
	full := NewVisits(32)
	full.Grow(n)
	for u := 0; u < 32; u++ {
		full.Record(NodeID(u), u)
	}
	step := 32
	if avg := testing.AllocsPerRun(500, func() {
		full.Record(NodeID(step%n), step) // a new node most of the time: evicts
		step++
	}); avg > 0 {
		t.Fatalf("Record on a full memory allocates %v per call, want 0", avg)
	}
	if full.Len() != 32 {
		t.Fatalf("full memory holds %d, want 32", full.Len())
	}
	if avg := testing.AllocsPerRun(500, func() {
		if _, ok := full.Last(NodeID((step - 1) % n)); !ok {
			t.Fatal("latest record missing")
		}
		full.Last(n + 5) // beyond the table
	}); avg > 0 {
		t.Fatalf("Last allocates %v per call, want 0", avg)
	}

	for _, capacity := range []int{0, 32} {
		s := rng.New(uint64(capacity) + 3)
		group := make([]*Visits, 4)
		for i := range group {
			group[i] = NewVisits(capacity)
			group[i].Grow(n)
		}
		var scratch MergeScratch
		stir := func() {
			for _, m := range group {
				for j := 0; j < 10; j++ {
					m.Record(NodeID(s.Intn(n)), step)
				}
			}
			step++
		}
		for i := 0; i < 50; i++ { // warm the scratch to the union's size
			stir()
			scratch.MergeAll(group)
		}
		if avg := testing.AllocsPerRun(200, func() {
			stir()
			scratch.MergeAll(group)
		}); avg > 0 {
			t.Fatalf("capacity %d: warmed MergeAll allocates %v per call, want 0", capacity, avg)
		}

		// Re-meetings: the group moves as one clump, records the same
		// node at the same step, and merges again over its dirty lists.
		clump := func() {
			u := NodeID(s.Intn(n))
			for _, m := range group {
				m.Record(u, step)
			}
			step++
			if !sharesLineage(group) {
				t.Fatalf("capacity %d: re-meeting group shares no lineage token", capacity)
			}
			scratch.MergeAll(group)
		}
		scratch.MergeAll(group) // start the lineage
		for i := 0; i < 50; i++ {
			clump()
		}
		if avg := testing.AllocsPerRun(200, clump); avg > 0 {
			t.Fatalf("capacity %d: warmed re-meeting MergeAll allocates %v per call, want 0", capacity, avg)
		}
	}
}

// TestVisitsDirtyListBounded records 10,000 steps into memories that
// never meet again after starting a lineage: the dirty list must never
// outgrow the memory's own record count.
func TestVisitsDirtyListBounded(t *testing.T) {
	const n = 300
	for _, capacity := range []int{0, 1, 2, 32} {
		s := rng.New(uint64(capacity) + 11)
		v, peer := NewVisits(capacity), NewVisits(capacity)
		for u := 0; u < n; u++ {
			v.Record(NodeID(u), 0)
		}
		MergeAll([]*Visits{v, peer})
		if v.token == 0 {
			t.Fatalf("capacity %d: merge started no lineage", capacity)
		}
		most := 0
		for step := 1; step <= 10000; step++ {
			v.Record(NodeID(s.Intn(n)), step)
			if len(v.dirty) > v.Len() {
				t.Fatalf("capacity %d, step %d: dirty list %d > %d records", capacity, step, len(v.dirty), v.Len())
			}
			most = max(most, len(v.dirty))
		}
		t.Logf("capacity %d: longest dirty list %d", capacity, most)
	}
}
