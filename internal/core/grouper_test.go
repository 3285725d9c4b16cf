package core

import (
	"testing"

	"repro/internal/rng"
)

// GroupByNode is the one-shot form of Grouper.Meetings: a Grouper sized
// for the agents' highest node and used once. It is the referee of a
// reused Grouper.
func GroupByNode(agents []*Agent) [][]*Agent {
	maxNode := NodeID(-1)
	for _, a := range agents {
		if a.At > maxNode {
			maxNode = a.At
		}
	}
	return NewGrouper(int(maxNode + 1)).Meetings(agents)
}

// TestGrouperMatchesGroupByNode drives one reused Grouper over many random
// agent placements and checks Meetings against the convenience form.
func TestGrouperMatchesGroupByNode(t *testing.T) {
	const n = 20
	agents := make([]*Agent, 12)
	for i := range agents {
		agents[i] = mkAgent(t, i, 0, PolicyRandom, nil)
	}
	gr := NewGrouper(n)
	s := rng.New(77)
	for trial := 0; trial < 50; trial++ {
		for _, a := range agents {
			a.At = NodeID(s.Intn(n))
		}
		want := GroupByNode(agents)
		got := gr.Meetings(agents)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d meetings, want %d", trial, len(got), len(want))
		}
		for g := range want {
			if len(got[g]) != len(want[g]) {
				t.Fatalf("trial %d group %d: size %d, want %d", trial, g, len(got[g]), len(want[g]))
			}
			for m := range want[g] {
				if got[g][m] != want[g][m] {
					t.Fatalf("trial %d group %d member %d differs", trial, g, m)
				}
			}
		}
	}
}

// TestGrouperZeroAllocs enforces the allocation budget: a warmed Grouper
// must partition without allocating.
func TestGrouperZeroAllocs(t *testing.T) {
	const n = 20
	agents := make([]*Agent, 16)
	for i := range agents {
		agents[i] = mkAgent(t, i, NodeID(i%5), PolicyRandom, nil)
	}
	gr := NewGrouper(n)
	gr.Meetings(agents)
	if avg := testing.AllocsPerRun(50, func() { gr.Meetings(agents) }); avg != 0 {
		t.Fatalf("Grouper.Meetings allocates %v per run, want 0", avg)
	}
}
