package routing

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// lookup returns node u's entry for gateway gw, if any.
func lookup(ts *Tables, u, gw NodeID) (Entry, bool) {
	for _, e := range ts.Entries(u) {
		if e.Gateway == gw {
			return e, true
		}
	}
	return Entry{}, false
}

func TestTableUpdateAndLookup(t *testing.T) {
	ts := NewTables(1, 4)
	if len(ts.Entries(0)) != 0 {
		t.Fatal("new table not empty")
	}
	if !ts.Update(0, Entry{Gateway: 1, NextHop: 2, Hops: 3, Updated: 10}) {
		t.Fatal("first insert rejected")
	}
	e, ok := lookup(ts, 0, 1)
	if !ok || e.NextHop != 2 || e.Hops != 3 {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	// Staler update rejected.
	if ts.Update(0, Entry{Gateway: 1, NextHop: 9, Hops: 1, Updated: 5}) {
		t.Fatal("staler entry accepted")
	}
	// Fresher update accepted.
	if !ts.Update(0, Entry{Gateway: 1, NextHop: 7, Hops: 9, Updated: 11}) {
		t.Fatal("fresher entry rejected")
	}
	// Equal freshness, shorter route accepted.
	if !ts.Update(0, Entry{Gateway: 1, NextHop: 8, Hops: 2, Updated: 11}) {
		t.Fatal("shorter same-step entry rejected")
	}
	// Equal freshness, equal hops rejected (no churn).
	if ts.Update(0, Entry{Gateway: 1, NextHop: 3, Hops: 2, Updated: 11}) {
		t.Fatal("identical-cost entry accepted")
	}
}

func TestTableEviction(t *testing.T) {
	ts := NewTables(1, 2)
	ts.Update(0, Entry{Gateway: 1, Hops: 2, Updated: 10})
	ts.Update(0, Entry{Gateway: 2, Hops: 2, Updated: 20})
	ts.Update(0, Entry{Gateway: 3, Hops: 2, Updated: 30})
	if got := len(ts.Entries(0)); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	if _, ok := lookup(ts, 0, 1); ok {
		t.Fatal("stalest entry survived eviction")
	}
	for _, gw := range []NodeID{2, 3} {
		if _, ok := lookup(ts, 0, gw); !ok {
			t.Fatalf("entry for %d evicted wrongly", gw)
		}
	}
}

func TestTableEvictionTieBreaks(t *testing.T) {
	ts := NewTables(1, 2)
	ts.Update(0, Entry{Gateway: 5, Hops: 9, Updated: 10})
	ts.Update(0, Entry{Gateway: 6, Hops: 2, Updated: 10})
	ts.Update(0, Entry{Gateway: 7, Hops: 1, Updated: 10})
	if _, ok := lookup(ts, 0, 5); ok {
		t.Fatal("higher-hop same-age entry should be evicted first")
	}
}

func TestTableUnbounded(t *testing.T) {
	ts := NewTables(1, 0)
	for i := 0; i < 100; i++ {
		ts.Update(0, Entry{Gateway: NodeID(i), Updated: i})
	}
	if got := len(ts.Entries(0)); got != 100 {
		t.Fatalf("unbounded table evicted: %d", got)
	}
}

func TestTableEntries(t *testing.T) {
	ts := NewTables(1, 0)
	ts.Update(0, Entry{Gateway: 1, Updated: 1})
	ts.Update(0, Entry{Gateway: 2, Updated: 2})
	es := ts.Entries(0)
	if len(es) != 2 {
		t.Fatalf("Entries len = %d", len(es))
	}
	sum := 0
	for _, e := range es {
		sum += int(e.Gateway)
	}
	if sum != 3 {
		t.Fatalf("Entries contents wrong: %v", es)
	}
}

// FuzzTableUpdate drives a routing table with an arbitrary update tape
// and checks the capacity bound plus freshest-wins semantics.
func FuzzTableUpdate(f *testing.F) {
	f.Add(uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), []byte{0, 0, 0})
	f.Add(uint8(0), []byte{255, 1, 128})
	f.Fuzz(func(t *testing.T, capacity uint8, tape []byte) {
		ts := NewTables(1, int(capacity))
		freshest := map[NodeID]int{}
		for i := 0; i+2 < len(tape); i += 3 {
			e := Entry{
				Gateway: NodeID(tape[i] % 8),
				NextHop: NodeID(tape[i+1] % 16),
				Hops:    int(tape[i+2]%10) + 1,
				Updated: int(tape[i] % 50),
			}
			ts.Update(0, e)
			if n := len(ts.Entries(0)); capacity > 0 && n > int(capacity) {
				t.Fatalf("len %d > capacity %d", n, capacity)
			}
			if cur, ok := lookup(ts, 0, e.Gateway); ok {
				// A stored entry for this gateway is never staler than
				// the best update we have offered so far.
				if prev, seen := freshest[e.Gateway]; seen && cur.Updated < prev && cur.Updated < e.Updated {
					t.Fatalf("gateway %d holds staler entry (%d) than offered (%d)",
						e.Gateway, cur.Updated, max(prev, e.Updated))
				}
			}
			if prev, seen := freshest[e.Gateway]; !seen || e.Updated > prev {
				freshest[e.Gateway] = e.Updated
			}
		}
		// All stored entries must be among the offered gateways.
		for _, e := range ts.Entries(0) {
			if _, ok := freshest[e.Gateway]; !ok {
				t.Fatalf("phantom gateway %d", e.Gateway)
			}
		}
	})
}

// TestTableResetZeroAllocs enforces the pooled per-worker scratch budget:
// recycling tables between runs (reset + refill to the same working set)
// must not allocate, so a replication worker's tables reach steady state
// after its first run.
func TestTableResetZeroAllocs(t *testing.T) {
	const capacity = 4
	ts := NewTables(1, capacity)
	fill := func() {
		for g := 0; g < capacity+2; g++ { // +2 forces evictions too
			ts.Update(0, Entry{Gateway: NodeID(g), NextHop: NodeID(g + 1), Hops: g, Updated: g})
		}
	}
	fill()
	avg := testing.AllocsPerRun(200, func() {
		ts.reset(1, capacity)
		fill()
	})
	if avg > 0 {
		t.Fatalf("Tables.reset+refill allocates %v per cycle, want 0", avg)
	}
	if ts.Evictions() == 0 {
		t.Fatal("refill never evicted — the test is not exercising the eviction path")
	}
}

// randomWrite applies one random Update or DropIf to ts and returns the
// written node.
func randomWrite(ts *Tables, s *rng.Stream, n int) NodeID {
	u := NodeID(s.Intn(n))
	if s.Bool(0.2) {
		limit := 1 + s.Intn(6)
		ts.DropIf(u, func(e Entry) bool { return e.Hops >= limit })
		return u
	}
	ts.Update(u, Entry{
		Gateway: NodeID(s.Intn(5)),
		NextHop: NodeID(s.Intn(n)),
		Hops:    1 + s.Intn(6),
		Updated: s.Intn(20),
	})
	return u
}

// TestTablesEveryWriteTracked pins the Meter's feed on bare tables (no
// Meter attached): after any batch of writes, the dirty list holds
// exactly the nodes whose rows changed, each once, and nothing else.
func TestTablesEveryWriteTracked(t *testing.T) {
	const n, capacity = 12, 3
	s := rng.New(7)
	ts := NewTables(n, capacity)
	for round := 0; round < 200; round++ {
		changed := map[NodeID]bool{}
		for k := s.Intn(8); k >= 0; k-- {
			before := make([][]Entry, n)
			for u := range before {
				before[u] = slices.Clone(ts.Entries(NodeID(u)))
			}
			u := randomWrite(ts, s, n)
			if !slices.Equal(before[u], ts.Entries(u)) {
				changed[u] = true
			}
		}
		seen := map[NodeID]int{}
		for _, u := range ts.dirty {
			seen[u]++
			if seen[u] > 1 {
				t.Fatalf("round %d: node %d on the dirty list twice", round, u)
			}
			if !changed[u] {
				t.Fatalf("round %d: node %d marked dirty but its row did not change", round, u)
			}
		}
		for u := range changed {
			if seen[u] != 1 {
				t.Fatalf("round %d: node %d changed but was not marked dirty", round, u)
			}
		}
		ts.clearDirty()
		if slices.Contains(ts.mark, true) {
			t.Fatalf("round %d: clearDirty left a mark set", round)
		}
	}
}

// TestTablesEvictionsTotal checks the O(1) eviction counter against a
// per-node count derived from observed rows: an accepted Update for a
// gateway the full row did not hold evicts exactly one entry. reset zeroes
// the counter.
func TestTablesEvictionsTotal(t *testing.T) {
	const n, capacity = 10, 2
	s := rng.New(11)
	ts := NewTables(n, capacity)
	perNode := make([]int, n)
	for i := 0; i < 2000; i++ {
		u := NodeID(s.Intn(n))
		if s.Bool(0.1) {
			ts.DropIf(u, func(e Entry) bool { return e.NextHop == u })
		} else {
			e := Entry{
				Gateway: NodeID(s.Intn(4)),
				NextHop: NodeID(s.Intn(n)),
				Hops:    1 + s.Intn(5),
				Updated: i / 7,
			}
			full := len(ts.Entries(u)) == capacity
			_, known := lookup(ts, u, e.Gateway)
			if ts.Update(u, e) && full && !known {
				perNode[u]++
			}
		}
		sum := 0
		for _, c := range perNode {
			sum += c
		}
		if got := ts.Evictions(); got != sum {
			t.Fatalf("write %d: Evictions() = %d, per-node sum %d", i, got, sum)
		}
	}
	if ts.Evictions() == 0 {
		t.Fatal("no evictions — the test is not exercising the counter")
	}
	ts.reset(n, capacity)
	if got := ts.Evictions(); got != 0 {
		t.Fatalf("reset left Evictions() = %d", got)
	}
}
