package routing

// Entry is one route in a node's routing table: to reach Gateway, forward
// to NextHop; the depositing agent believed the gateway was Hops hops away
// as of step Updated.
type Entry struct {
	Gateway NodeID
	NextHop NodeID
	Hops    int
	Updated int
}

// Tables is the per-node routing state agents maintain. Nodes run no
// routing protocol of their own — only agents write entries — so each
// node's row is a passive, bounded store: at most one entry per gateway
// and at most capacity entries overall, evicting the stalest when full.
// Rows live in small slices (tables hold a handful of routes, one by
// default), which keeps lookups branch-friendly and lets the per-step
// metric loops iterate without allocating.
//
// Update and DropIf are the only mutators, and every write that changes
// a row marks its node on a dirty list the Meter drains, so no write can
// escape incremental measurement. Construct with NewTables.
type Tables struct {
	rows      [][]Entry
	capacity  int // per-row bound; <= 0 means unbounded
	evictions int

	dirty []NodeID
	mark  []bool // mark[u]: u already on dirty
}

// NewTables builds empty tables for n nodes with the given per-node
// capacity (<= 0 means unbounded).
func NewTables(n, capacity int) *Tables {
	ts := &Tables{}
	ts.reset(n, capacity)
	return ts
}

// reset prepares ts for a fresh run over n nodes with per-node capacity,
// reusing row storage where possible: rows are emptied, the eviction
// count is zeroed and the dirty list cleared, so pooled tables are
// indistinguishable from fresh ones.
func (ts *Tables) reset(n, capacity int) {
	if cap(ts.rows) < n {
		ts.rows = make([][]Entry, n)
		ts.mark = make([]bool, n)
	}
	ts.rows = ts.rows[:n]
	ts.mark = ts.mark[:n]
	for i := range ts.rows {
		ts.rows[i] = ts.rows[i][:0]
	}
	clear(ts.mark)
	ts.dirty = ts.dirty[:0]
	ts.capacity = capacity
	ts.evictions = 0
}

// Entries returns node u's entries in unspecified order. The slice is
// owned by the tables and valid until the next write to u; callers must
// not modify it.
func (ts *Tables) Entries(u NodeID) []Entry { return ts.rows[u] }

// Update installs e at node u unless a fresher (or equally fresh but
// shorter) entry for the same gateway is already present, and reports
// whether the row changed. A new gateway is appended, evicting the
// stalest entry first when the row is full; a better entry for a known
// gateway replaces it in place.
func (ts *Tables) Update(u NodeID, e Entry) bool {
	row := ts.rows[u]
	for i := range row {
		if row[i].Gateway != e.Gateway {
			continue
		}
		old := row[i]
		if old.Updated > e.Updated {
			return false
		}
		if old.Updated == e.Updated && old.Hops <= e.Hops {
			return false
		}
		row[i] = e
		ts.markDirty(u)
		return true
	}
	if ts.capacity > 0 && len(row) >= ts.capacity {
		row = ts.evictStalest(row)
	}
	ts.rows[u] = append(row, e)
	ts.markDirty(u)
	return true
}

// evictStalest swap-removes the (non-empty) row's entry with the oldest
// Updated stamp, breaking ties by larger hop count, then by gateway ID for
// determinism.
func (ts *Tables) evictStalest(row []Entry) []Entry {
	victim := 0
	for i := 1; i < len(row); i++ {
		if staler(row[i], row[victim]) {
			victim = i
		}
	}
	last := len(row) - 1
	row[victim] = row[last]
	ts.evictions++
	return row[:last]
}

// staler reports whether a is a worse entry to keep than b.
func staler(a, b Entry) bool {
	if a.Updated != b.Updated {
		return a.Updated < b.Updated
	}
	if a.Hops != b.Hops {
		return a.Hops > b.Hops
	}
	return a.Gateway < b.Gateway
}

// DropIf removes node u's entries for which drop returns true
// (swap-remove, so order is not preserved) and reports how many were
// removed. The routing harness uses it to age out routes through dead
// next hops and routes to gateways that fell out of service after a
// fault epoch. Drops do not count as capacity evictions.
func (ts *Tables) DropIf(u NodeID, drop func(Entry) bool) int {
	row := ts.rows[u]
	removed := 0
	for i := 0; i < len(row); {
		if drop(row[i]) {
			last := len(row) - 1
			row[i] = row[last]
			row = row[:last]
			removed++
			continue
		}
		i++
	}
	if removed > 0 {
		ts.rows[u] = row
		ts.markDirty(u)
	}
	return removed
}

// Evictions returns the total number of capacity evictions across all
// rows since the tables were built or reset.
func (ts *Tables) Evictions() int { return ts.evictions }

// Best returns the preferred forwarding entry at node u: fewest hops,
// then freshest, then lowest gateway ID. ok is false for an empty row.
func (ts *Tables) Best(u NodeID) (Entry, bool) {
	var best Entry
	found := false
	for _, e := range ts.rows[u] {
		if !found || better(e, best) {
			best, found = e, true
		}
	}
	return best, found
}

func better(a, b Entry) bool {
	if a.Hops != b.Hops {
		return a.Hops < b.Hops
	}
	if a.Updated != b.Updated {
		return a.Updated > b.Updated
	}
	return a.Gateway < b.Gateway
}

func (ts *Tables) markDirty(u NodeID) {
	if !ts.mark[u] {
		ts.mark[u] = true
		ts.dirty = append(ts.dirty, u)
	}
}

// clearDirty empties the dirty list (meter-side, after draining it).
func (ts *Tables) clearDirty() {
	for _, u := range ts.dirty {
		ts.mark[u] = false
	}
	ts.dirty = ts.dirty[:0]
}
