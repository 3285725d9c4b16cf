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
	}
}
