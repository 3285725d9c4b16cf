package stigmergy

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

func TestLeaveAndIsMarked(t *testing.T) {
	b := NewBoard(5, 3)
	if b.IsMarked(0, 1) {
		t.Fatal("fresh board has marks")
	}
	b.Leave(0, 1, 10)
	if !b.IsMarked(0, 1) {
		t.Fatal("mark not found")
	}
	if b.IsMarked(0, 2) || b.IsMarked(1, 1) {
		t.Fatal("mark leaked to wrong target/node")
	}
}

func TestSameTargetRefreshes(t *testing.T) {
	b := NewBoard(3, 2)
	b.Leave(0, 1, 10)
	b.Leave(0, 1, 20) // refresh, not duplicate
	ms := b.Marks(0)
	if len(ms) != 1 || ms[0].Step != 20 {
		t.Fatalf("marks = %v", ms)
	}
}

func TestPerNodeDisplacement(t *testing.T) {
	b := NewBoard(2, 2)
	b.Leave(0, 10, 1)
	b.Leave(0, 11, 2)
	b.Leave(0, 12, 3) // displaces the oldest (target 10)
	if b.IsMarked(0, 10) {
		t.Fatal("oldest mark survived displacement")
	}
	for _, target := range []NodeID{11, 12} {
		if !b.IsMarked(0, target) {
			t.Fatalf("mark %d displaced wrongly", target)
		}
	}
}

func TestInfiniteWindow(t *testing.T) {
	b := NewBoard(2, 4)
	b.Leave(0, 5, 1)
	b.Leave(1, 6, 1_000_000) // time passes elsewhere on the board
	if ms := b.Marks(0); !b.IsMarked(0, 5) || len(ms) != 1 || ms[0].Step != 1 {
		t.Fatal("marks must never expire")
	}
}

func TestUnmarked(t *testing.T) {
	b := NewBoard(3, 4)
	b.Leave(0, 1, 5)
	b.Leave(0, 3, 6)
	got := b.Unmarked(0, []NodeID{1, 2, 3, 4}, nil)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("Unmarked = %v, want [2 4]", got)
	}
	// All marked → empty result signals the fallback.
	all := b.Unmarked(0, []NodeID{1, 3}, nil)
	if len(all) != 0 {
		t.Fatalf("expected empty, got %v", all)
	}
}

func TestPerNodeMinimumOne(t *testing.T) {
	b := NewBoard(1, 0)
	if b.PerNode() != 1 {
		t.Fatalf("PerNode = %d, want raised to 1", b.PerNode())
	}
	b.Leave(0, 2, 1)
	b.Leave(0, 3, 2)
	if b.IsMarked(0, 2) {
		t.Fatal("capacity-1 board kept two marks")
	}
	if !b.IsMarked(0, 3) {
		t.Fatal("newest mark lost")
	}
}

func TestReset(t *testing.T) {
	b := NewBoard(2, 2)
	b.Leave(0, 1, 1)
	b.Leave(1, 0, 1)
	b.Reset(2, 2)
	if b.IsMarked(0, 1) || b.IsMarked(1, 0) {
		t.Fatal("Reset left marks")
	}
	// Shrinking and growing again must not resurrect the marks of nodes
	// that fell off the end.
	b.Leave(1, 0, 2)
	b.Reset(1, 2)
	b.Reset(4, 2)
	for u := NodeID(0); u < 4; u++ {
		if got := b.Marks(u); len(got) != 0 {
			t.Fatalf("node %d holds %v after shrink and grow", u, got)
		}
	}
}

// TestResetMatchesFresh pins that a board reset onto a network of any
// size and mark capacity behaves exactly like a fresh board of that shape
// under the same random sequence of marks.
func TestResetMatchesFresh(t *testing.T) {
	r := rng.New(5)
	var recycled Board
	for trial := 0; trial < 200; trial++ {
		n, perNode := 1+r.Intn(30), r.Intn(5)
		recycled.Reset(n, perNode)
		fresh := NewBoard(n, perNode)
		if recycled.PerNode() != fresh.PerNode() {
			t.Fatalf("trial %d: reset board keeps %d marks per node, a fresh one %d", trial, recycled.PerNode(), fresh.PerNode())
		}
		for op := 0; op < 60; op++ {
			node, target, step := NodeID(r.Intn(n)), NodeID(r.Intn(n)), trial*100+op
			recycled.Leave(node, target, step)
			fresh.Leave(node, target, step)
		}
		for u := NodeID(0); u < NodeID(n); u++ {
			if got, want := recycled.Marks(u), fresh.Marks(u); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: node %d holds %v on the reset board, %v on a fresh one", trial, u, got, want)
			}
		}
	}
}

// TestResetZeroAllocs pins that resetting a board that already holds
// storage for the network, then refilling it, allocates nothing.
func TestResetZeroAllocs(t *testing.T) {
	b := NewBoard(300, 3)
	fill := func() {
		for i := 0; i < 3000; i++ {
			b.Leave(NodeID(i%300), NodeID(i%7), i)
		}
	}
	fill()
	if avg := testing.AllocsPerRun(20, func() {
		b.Reset(300, 3)
		fill()
	}); avg != 0 {
		t.Fatalf("reset and refill allocate %.1f times per run, want 0", avg)
	}
}

func TestSingleAgentAvoidOwnPath(t *testing.T) {
	// The paper's single-agent case: the agent marks its next hop; when it
	// returns to the node the mark steers it elsewhere.
	b := NewBoard(4, 2)
	b.Leave(0, 1, 1) // agent went 0→1
	candidates := []NodeID{1, 2, 3}
	free := b.Unmarked(0, candidates, nil)
	for _, f := range free {
		if f == 1 {
			t.Fatal("previously taken path not filtered")
		}
	}
	if len(free) != 2 {
		t.Fatalf("free = %v", free)
	}
}

func BenchmarkLeaveAndQuery(b *testing.B) {
	board := NewBoard(300, 3)
	candidates := []NodeID{1, 2, 3, 4, 5, 6, 7}
	var buf []NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := NodeID(i % 300)
		board.Leave(node, candidates[i%7], i)
		buf = board.Unmarked(node, candidates, buf[:0])
	}
}
