package network

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
)

// This file implements the incremental topology engine: instead of
// rebuilding the whole directed link graph every step, the World mutates
// the previous step's graph in place, touching only the links that can
// have changed. Per-step link change in the paper's MANET scenarios is
// sparse churn — half the nodes are stationary, waypoint movers dwell at
// their destinations, and battery decay only ever shrinks ranges — so
// maintenance cost is proportional to the pairs that come close to a
// range threshold plus the links that actually churned, not to the whole
// graph.
//
// Pairs fall into three groups, each covered by exactly one mechanism:
//
//  1. static source → static target, source non-decaying: distance and
//     range are both constant, so the edge never changes — never touched.
//  2. static decaying source → static target: distance is constant and
//     Range() shrinks monotonically, so the edge can only disappear, once,
//     when the range crosses the fixed distance. Per source a list of
//     static targets sorted by descending distance plus a cursor turns
//     all such removals into an amortized O(removed)-per-step scan.
//  3. any pair with a mobility-capable endpoint (a mover of any type but
//     mobility.Static): a kinetic pair certificate, below. This covers a
//     pair whose endpoints move, and equally one whose gap shrinks only
//     by decay — a decaying static source next to a dwelling waypoint
//     mover, or a decaying mover's own out-links while it dwells.
//
// Kinetic certificates (the kinetic-data-structure view of moving points:
// Basch, Guibas and Hershberger, "Data structures for mobile data", SODA
// 1997). Every tracked pair (a, b) remembers its two directed link bits
// and carries a certificate: a step before which neither bit can flip. At
// a check the pair is decided by exactly the full rebuild's predicate and
// float expressions — dist2 <= sqOrNeg(r) — and its bits are compared
// with the result; a difference is an edit through editLink. The pair's
// next check step is then set to
//
//	due = now + max(1, floor(gap / (rate_a + rate_b)))
//
// where gap is the distance from d to the nearer of the thresholds r_a and
// r_b, less a float slack, and rate_u = spd_u + dec_u bounds how fast u
// closes any gap per step: spd_u its per-step displacement, dec_u its
// per-step range drop. Within j steps d moves by at most j(spd_a + spd_b)
// and each threshold by at most j·dec, so neither predicate can change
// sign before step now + gap/rate: the recheck at due comes no later than
// the first step a flip is possible, and a flip is only ever observed by
// a check, never predicted. The calendar is the dense array of due steps;
// each step scans it for its own step number.
//
// Bounds are checked every step, not trusted: a certificate is only as
// good as the bounds it assumed, and those are observations (the Mover
// interface promises no speed limit). After the moves and the decay, a
// node whose displacement or range drop this step exceeds its bound
// raises the bound and rechecks all its listed pairs, reissuing their
// certificates — a faster waypoint leg, a first move after a dwell. A
// dwelling mover's bound drops to zero (live certificates assumed more,
// so they stay valid), which stretches its pairs' next certificates and
// makes the move that ends the dwell a violation. A static decaying node
// keeps no list of its own, so its violation — never observed with
// battery decay, whose per-step drop is probed once — rechecks every live
// pair. Fault events (respawn teleports, radio restores) run on
// full-rebuild steps, after which the engine resynchronises from scratch.
//
// Hot movers: a mover whose displacement bound reaches hotSpeed earns
// one-step certificates for most of its pairs. Its pairs' checks then
// hold them on its list (due = dueHeld) instead of setting a due step,
// and it walks its whole list on the next step, reading the link bits
// copied into its list entries; the step it slows below hotSpeed or stops,
// that walk reissues real certificates.
//
// Which pairs are tracked: every alive mover x keeps a candidate list
// built by a grid box scan around its position at build time (its anchor):
// a partner y is listed when dist(x, y) <= max(r_x, r_y) + ext_x + ext_y,
// with ext = skin + the node's offset from its own anchor for movers and 0
// for static nodes. x rebuilds its own list — no one else's — on the step
// it strays more than skin from its anchor, so one fast node never forces
// a global rebuild. Coverage: take an untracked pair and the later of its
// endpoints' two list builds, x's at step t. Then dist(t) >
// max(r_x, r_y) + skin + skin + off_y(t). Until either rebuilds again, x
// stays within skin of p_x(t) and y within skin + off_y(t) of p_y(t), so
// the distance stays above max(r_x, r_y), which bounds both ranges since
// ranges never grow between fault steps: an untracked pair holds no link
// and cannot want one. A rebuild keeps the listed pairs that still pass
// the margin, with their certificates, settles and drops the ones that do
// not, and checks the new ones from "no link". Pairs live once in a record
// pool and are referenced from both endpoints' lists when both move.
//
// Group 3 replaces three mechanisms of the earlier engine: a box scan of
// every moved node every step, and two decay-only expiry paths next to
// dwelling movers — in-source lists of decaying static sources, and a
// walk over a dwelling decaying mover's out-list. Their pairs' gaps
// shrink only by decay, so they are simply pairs with long certificates.
//
// The edit order within a step differs from a full rebuild's, but the
// resulting out-lists are the same sorted sets, so the maintained graph
// stays bit-identical to a full rebuild (pinned by the equivalence, fuzz
// and adversarial certificate tests in this package).

// Tuning constants, measured on BenchmarkWorldStep (2-CPU host): the
// routing250 tier (the paper's Fig 8 world: random-velocity movers at
// 0.1–0.5 per step) and the n=500/8000 waypoint tiers (local waypoint
// movers at 0.5–3 per step between long dwells).
const (
	// skin is how far a mover may stray from its anchor before it
	// rebuilds its candidate list. Smaller skins rebuild more often,
	// larger ones list more far pairs (and allocate more per world);
	// across skins 0.75–8, 3 was fastest on the waypoint tiers and within
	// noise of the best (3–6) on routing250, where 1.5 was ~10% slower.
	skin = 3.0
	// hotSpeed is the displacement bound at which a mover's pairs are
	// held on its list instead of given certificates: it crosses a third
	// of its skin per step, so most of its pairs would earn one step
	// anyway, and walking its list next step is cheaper than computing
	// and scanning each due step. Thresholds 0.5–2 measured alike on the
	// n=500 waypoint tier, ~25% faster than no hot movers; routing250's
	// movers stay below it.
	hotSpeed = skin / 3
	// maxCert caps a certificate, so due steps stay far from int32
	// overflow; a pair nothing moves or drains near earns it.
	maxCert = 1 << 24
	// certSlack absorbs float rounding in gaps, displacements and range
	// drops, orders of magnitude above it at arena scales up to 10^4.
	certSlack = 1e-6
	// boundHeadroom lifts a raised displacement or decay bound just
	// above the observation, so the few-ulp jitter of a constant-speed
	// mover's float displacement does not re-trigger it every step.
	boundHeadroom = 1 + 1.0/1024
)

// nodeRec is the packed per-node record a pair check reads: position,
// range, squared range, closing rate, hot flag and list offset in one
// random access.
type nodeRec struct {
	p    geom.Point // current position (mirrors w.pos)
	r    float64    // current range: the gap thresholds
	r2   float64    // sqOrNeg(r): the link predicate's squared range
	rate float64    // certificate closing-rate bound: spd + dec
	ext  float64    // list-margin share: skin + anchor offset for movers, 0 static
	// hot marks a mover that moved this step with spd >= hotSpeed: its
	// pairs checked this step are held on its list, which it walks next
	// step, instead of given due steps.
	hot bool
	off int32 // a mover's list segment in links, so a check reaches the bits
}

// moverRec is the list state of one mobility-capable node x. Its list —
// the pairs it is an endpoint of — is links[off : off+n] with off =
// rec[x].off, in a segment of size entries.
type moverRec struct {
	anchor  geom.Point // position at the last list build
	spd     float64    // per-step displacement bound its certificates assume
	n, size int32
	pend    uint8 // pendRebuild | pendRecheck, this step
}

const (
	pendRebuild = 1 << iota // strayed past its skin: rebuild its list
	pendRecheck             // exceeded a bound or was hot: recheck its list
)

// link is one entry of a mover's list: a pair, and the partner in it
// with the pair's link bits seen from the list's owner x in its top two
// bits. The entry in a's list holds the pair's bits; b's entry, when b is
// a mover, mirrors them (setBits writes both), so a hot mover's walk
// reads no pair record.
type link struct {
	pi int32
	yb uint32 // partner id | linkOut (x→y present) | linkIn (y→x present)
}

const (
	linkOut = 1 << 31
	linkIn  = 1 << 30
	linkID  = linkIn - 1 // node ids stay far below 2^30
)

func (l link) y() int32 { return int32(l.yb & linkID) }

func (l link) bits() (out, in bool) { return l.yb&linkOut != 0, l.yb&linkIn != 0 }

func (l *link) setBits(out, in bool) {
	l.yb &= linkID
	if out {
		l.yb |= linkOut
	}
	if in {
		l.yb |= linkIn
	}
}

// pairRec is one tracked pair (a, b). a is always a mover (the node
// whose scan created it) and keeps the pair at index sa of its list; b,
// the partner that entry names, is a mover or a static node, and keeps
// the pair at index sb of its own list (-1 for a static b).
type pairRec struct {
	a, sa, sb int32
}

// ends returns pair p's endpoints, a and b.
func (t *incrState) ends(p *pairRec) (a, b int32) {
	return p.a, t.links[t.rec[p.a].off+p.sa].y()
}

// Pair due values that file nothing in the calendar.
const (
	dueFree = -1 // the record is on the free list
	dueHeld = -2 // a hot endpoint rechecks the pair next step
)

// partnerMark is one rebuild-scan stamp (see incrState.mark).
type partnerMark struct {
	gen uint32
	i   int32
}

// incrState is the per-world state of the incremental topology engine.
type incrState struct {
	mobile   []int32 // mobility-capable node ids, ascending
	rec      []nodeRec
	mov      []moverRec // mover ordinal (index in mobile) -> list state
	ord      []int32    // node id -> mover ordinal; -1 marks a static node
	dec      []float64  // node id -> per-step range-drop bound
	decayIds []int32    // all decaying node ids (range refresh set)
	maxR     float64    // max range at the last resync (ranges only shrink)

	pairs []pairRec
	// links is the arena every mover's list lives in. A list that
	// outgrows its segment moves to a larger one at the arena's end, and
	// a full arena is compacted before it grows: list lengths wander with
	// the local density a mover passes through, and per-list slices kept
	// reallocating one by one at n=8000, long after warm-up.
	links []link
	byOff []int32 // compaction scratch: movers by segment offset
	// due, parallel to pairs, is the calendar: each pair's next check
	// step, or dueFree/dueHeld. A step scans it for its own step number —
	// a sequential int32 pass, about 1µs on the Fig 8 world. A ring of
	// per-step buckets ran no faster, but every bucket grew to hold a
	// step's worth of checks: several times the pairs' own footprint, on
	// a world Fig 8 builds per run.
	due   []int32
	free  []int32
	dirty []int32 // movers with pend set this step
	// recheckAll marks a step on which a static node exceeded its decay
	// bound: its pairs are scattered over its partners' lists.
	recheckAll bool

	cand []candidate // scanList output

	// Rebuild scan scratch: mark[y].gen == gen marks y as a partner in
	// the rebuilding node's old list, at index mark[y].i; gen+1 marks it
	// found again by the scan. resyncPairs borrows mark[x].i to count
	// mover x's pairs.
	mark []partnerMark
	gen  uint32

	decay []decayCursor // one per static decaying source (group 2)

	// stale marks the records, lists and certificates invalid: full-
	// rebuild steps move nodes, drain batteries, and rewrite the topology
	// without maintaining them, so the first incremental step after a mode
	// toggle resynchronizes from the world (decay cursors tolerate
	// staleness on their own).
	stale bool
}

// candidate is one scanList result: a node within the list margin.
type candidate struct {
	y  int32
	d2 float64
}

// decayCursor tracks group-2 edges (static decaying source → static
// target): dst holds the source's static in-range targets by descending
// distance, and cursor advances — removing edges — as Range() shrinks
// below each stored distance. Ranges never grow, so the cursor never
// rewinds and every group-2 edge is removed exactly once.
type decayCursor struct {
	src    NodeID
	dst    []NodeID  // static targets, descending distance order
	d2     []float64 // squared distance to dst[i]
	cursor int
}

// sqOrNeg maps a range to its squared value, or -1 for ranges <= 0, so a
// single "dist2 <= sqOrNeg(r)" compare reproduces the rebuild membership
// predicate "r > 0 && dist2 <= r*r" bit for bit (dist2 >= 0 > -1).
func sqOrNeg(r float64) float64 {
	if r > 0 {
		return r * r
	}
	return -1
}

// dropBound probes a radio's per-step range drop on a copy: battery decay
// takes the same charge fraction every step until the floor, so one
// step's drop bounds all later ones (up to rounding, which the headroom
// covers) until a fault event changes the radio.
func dropBound(r radio.Radio) float64 {
	before := r.Range()
	r.Step()
	return (before - r.Range()) * boundHeadroom
}

// initIncremental builds the engine state for a freshly constructed
// dynamic world: mover classification, node records, candidate lists and
// certificates, and the group-2 decay cursors. Called after the initial
// rebuildTopology, so the grid and topology are populated.
func (w *World) initIncremental(movers []mobility.Mover) {
	n := w.N()
	t := &incrState{
		rec:  make([]nodeRec, n),
		ord:  make([]int32, n),
		dec:  make([]float64, n),
		mark: make([]partnerMark, n),
	}
	for i, m := range movers {
		t.ord[i] = -1
		if _, static := m.(mobility.Static); !static {
			t.ord[i] = int32(len(t.mobile))
			t.mobile = append(t.mobile, int32(i))
		}
	}
	t.mov = make([]moverRec, len(t.mobile))
	// A fresh world's movers assume no motion, so each one's first move
	// breaks its bound: the dirty list reaches one entry per mover at once.
	t.dirty = make([]int32, 0, len(t.mobile))
	for u := 0; u < n; u++ {
		if !w.radios[u].Decays() {
			continue
		}
		t.decayIds = append(t.decayIds, int32(u))
		if t.ord[u] >= 0 {
			continue
		}
		// One cursor per source, even when its target list is currently
		// empty (an empty cursor is a no-op): fault resyncs refill every
		// cursor in place.
		t.decay = append(t.decay, decayCursor{src: NodeID(u)})
	}
	w.incr = t
	w.resyncPairs(int32(w.step))
	w.fillDecayCursors()
	// Every adjacency row migrates out of the CSR build with insert
	// headroom: a CSR row's first surgical insert would otherwise
	// reallocate it, and rows at their exact high-water degree would keep
	// reallocating one by one. (resyncPairs sized the pair pool and the
	// lists with headroom of their own.)
	w.topo.OwnRows(8)
}

// fillDecayCursors (re)derives every group-2 cursor's target list from the
// CURRENT world state: the source's static in-range targets by descending
// distance, cursor at the start. Runs at init and on fault resyncs — fault
// events can grow a range back (RadioRestore) or teleport a static node
// (respawn), both of which invalidate a cursor's never-rewind premise; a
// rebuilt cursor restores it, since between fault steps ranges only shrink.
// Entries keep their slot (one per decay source). Dead sources get an
// empty list: they have no out-edges to expire, and revival is itself a
// fault resync.
func (w *World) fillDecayCursors() {
	t := w.incr
	for i := range t.decay {
		dc := &t.decay[i]
		dc.dst = dc.dst[:0]
		dc.d2 = dc.d2[:0]
		dc.cursor = 0
		u := int(dc.src)
		if w.flt != nil && w.flt.dead[u] {
			continue
		}
		r := w.radios[u].Range()
		if r <= 0 {
			continue
		}
		w.nbrBuf = w.grid.Within(w.pos[u], r, u, w.nbrBuf[:0])
		for _, v := range w.nbrBuf {
			if t.ord[v] >= 0 {
				continue
			}
			dc.dst = append(dc.dst, v)
		}
		// Descending distance with an id tie-break keeps the removal tape
		// deterministic; equal-distance targets drop in the same step
		// anyway, so the tie-break never reaches observable state.
		slices.SortFunc(dc.dst, func(a, b NodeID) int {
			da, db := w.pos[u].Dist2(w.pos[a]), w.pos[u].Dist2(w.pos[b])
			switch {
			case da > db:
				return -1
			case da < db:
				return 1
			default:
				return int(a - b)
			}
		})
		for _, v := range dc.dst {
			dc.d2 = append(dc.d2, w.pos[u].Dist2(w.pos[v]))
		}
	}
}

// resyncPairs re-derives the node records, every candidate list and every
// certificate from the world as of step base, whose topology is the truth
// (a fresh world or a full rebuild): link bits are read off the predicate
// without edits. Displacement bounds survive — they describe the movers,
// not the topology — while decay bounds are re-probed, since fault events
// may have changed a radio.
func (w *World) resyncPairs(base int32) {
	t := w.incr
	t.maxR = 0
	for u := range t.rec {
		r := w.radios[u].Range()
		if t.ord[u] >= 0 {
			t.mover(int32(u)).anchor = w.pos[u]
		}
		if w.radios[u].Decays() {
			t.dec[u] = dropBound(w.radios[u])
		}
		alive := w.flt == nil || !w.flt.dead[u]
		if alive && r > t.maxR {
			t.maxR = r
		}
		t.rec[u] = nodeRec{p: w.pos[u], r: r, r2: sqOrNeg(r), rate: t.dec[u]}
		if t.ord[u] >= 0 {
			t.rec[u].rate += t.mover(int32(u)).spd
		}
	}
	// Two passes over the same scans: the first counts each mover's
	// pairs, so the pair pool and the link arena are sized once. Dead
	// nodes are off the grid: no list, no pairs. The margin is symmetric,
	// so a pair of movers is created by the lower id's scan.
	listed := func(x, y int32) bool { return y != x && (t.ord[y] < 0 || y > x) }
	for _, x := range t.mobile {
		t.mark[x].i = 0 // pair count
		t.rec[x].ext = skin
	}
	total := 0
	for _, x := range t.mobile {
		if w.flt != nil && w.flt.dead[x] {
			continue
		}
		w.scanList(x)
		for _, c := range t.cand {
			if listed(x, c.y) {
				total++
				t.mark[x].i++
				if t.ord[c.y] >= 0 {
					t.mark[c.y].i++
				}
			}
		}
	}
	t.reserve(total)
	for _, x := range t.mobile {
		if w.flt != nil && w.flt.dead[x] {
			continue
		}
		w.scanList(x)
		for _, c := range t.cand {
			if !listed(x, c.y) {
				continue
			}
			pi := t.newPair(x, c.y)
			rx, ry := &t.rec[x], &t.rec[c.y]
			t.setBits(pi, c.d2 <= rx.r2, c.d2 <= ry.r2)
			t.issue(pi, rx, ry, c.d2, base)
		}
	}
}

// reserve empties the pair pool and the link arena, with room for total
// pairs and a segment per mover for its counted pairs (in mark[x].i) plus
// headroom, and spare arena room for the segments that outgrow theirs.
func (t *incrState) reserve(total int) {
	if room := total + total/8 + 16; cap(t.pairs) < room {
		t.pairs = make([]pairRec, 0, room)
		t.due = make([]int32, 0, room)
		t.free = make([]int32, 0, room/8)
	}
	t.pairs, t.due, t.free = t.pairs[:0], t.due[:0], t.free[:0]
	end := int32(0)
	for i, x := range t.mobile {
		m := &t.mov[i]
		t.rec[x].off, m.n, m.size = end, 0, segmentSize(t.mark[x].i)
		end += m.size
	}
	if room := int(end + end/8); cap(t.links) < room {
		t.links = make([]link, 0, room)
	}
	t.links = t.links[:end]
}

// list returns mover x's list. The slice is valid until the next push to
// any list, which may move segments.
func (t *incrState) list(x int32) []link {
	off := t.rec[x].off
	return t.links[off : off+t.mover(x).n]
}

// push appends l to mover x's list, moving the list to a larger segment
// at the arena's end when its own is full.
func (t *incrState) push(x int32, l link) {
	m, r := t.mover(x), &t.rec[x]
	if m.n == m.size {
		size := segmentSize(m.n + 1)
		if len(t.links)+int(size) > cap(t.links) {
			t.compact(int(size))
		}
		end := int32(len(t.links))
		t.links = t.links[:end+size]
		copy(t.links[end:], t.links[r.off:r.off+m.n])
		r.off, m.size = end, size
	}
	t.links[r.off+m.n] = l
	m.n++
}

// segmentSize is the arena segment given to a list of n links: room for
// a quarter more.
func segmentSize(n int32) int32 { return n + n/4 + 4 }

// compact slides every list down from the arena's start, in offset
// order, over the space moved lists left behind, trimming segments to
// segmentSize (never growing one, so no list overtakes the next), then
// grows the arena if that did not free room for another segment of size
// need.
func (t *incrState) compact(need int) {
	if t.byOff == nil {
		t.byOff = make([]int32, 0, len(t.mov))
	}
	t.byOff = t.byOff[:0]
	for i := range t.mov {
		t.byOff = append(t.byOff, int32(i))
	}
	off := func(i int32) int32 { return t.rec[t.mobile[i]].off }
	slices.SortFunc(t.byOff, func(a, b int32) int { return int(off(a) - off(b)) })
	end := int32(0)
	for _, i := range t.byOff {
		m, r := &t.mov[i], &t.rec[t.mobile[i]]
		copy(t.links[end:], t.links[r.off:r.off+m.n])
		r.off, m.size = end, min(m.size, segmentSize(m.n))
		end += m.size
	}
	t.links = t.links[:end]
	if need := int(end) + need; need > cap(t.links) {
		t.links = slices.Grow(t.links, need+need/4-int(end))
	}
}

// scanList collects into t.cand every node within x's list margin of x,
// with its squared distance: one box scan of the grid around x. Dead nodes
// are off the grid and never collected; x itself always is. The margin
// test keeps the scan branch-free — a candidate is always written and the
// length advanced by the test — since which bucket entries pass is a coin
// flip the predictor cannot learn.
func (w *World) scanList(x int32) {
	t := w.incr
	rx := &t.rec[x]
	px := rx.p
	ext := rx.ext + certSlack
	// ext <= 2*skin for every node once this step's anchors are reset, so
	// the box bounds every margin.
	reach := t.maxR + 2*skin + ext
	lo := geom.Point{X: px.X - reach, Y: px.Y - reach}
	hi := geom.Point{X: px.X + reach, Y: px.Y + reach}
	x0, x1, y0, y1 := w.grid.BoxCellRange(lo, hi)
	cols := w.grid.Cols()
	cand := t.cand[:0]
	for cy := y0; cy <= y1; cy++ {
		base := cy * cols
		for cx := x0; cx <= x1; cx++ {
			bucket := w.grid.CellBucket(base + cx)
			n := len(cand)
			cand = slices.Grow(cand, len(bucket))[:n+len(bucket)]
			for _, e := range bucket {
				dx, dy := e.X-px.X, e.Y-px.Y
				d2 := dx*dx + dy*dy
				ry := &t.rec[e.ID]
				m := max(rx.r, ry.r) + ry.ext + ext
				cand[n] = candidate{y: e.ID, d2: d2}
				if d2 <= m*m {
					n++
				}
			}
			cand = cand[:n]
		}
	}
	t.cand = cand
}

// newPair allocates a pair record for mover x and partner y with no links
// and lists it with both endpoints.
func (t *incrState) newPair(x, y int32) int32 {
	p := pairRec{a: x, sa: t.mover(x).n, sb: -1}
	if t.ord[y] >= 0 {
		p.sb = t.mover(y).n
	}
	var pi int32
	if n := len(t.free); n > 0 {
		pi = t.free[n-1]
		t.free = t.free[:n-1]
		t.pairs[pi] = p
	} else {
		if len(t.pairs) == cap(t.pairs) {
			// Anchor drift widens margins, so a world can outgrow the pool
			// counted at its resync; grow by a quarter, not append's double.
			more := len(t.pairs)/4 + 16
			t.pairs = slices.Grow(t.pairs, more)
			t.due = slices.Grow(t.due, more)
		}
		pi = int32(len(t.pairs))
		t.pairs = append(t.pairs, p)
		t.due = append(t.due, 0)
	}
	t.due[pi] = dueHeld // until its first check sets it
	t.push(x, link{pi: pi, yb: uint32(y)})
	if t.ord[y] >= 0 {
		t.push(y, link{pi: pi, yb: uint32(x)})
	}
	return pi
}

// dropPair unlists pair pi from both endpoints and frees its record.
func (t *incrState) dropPair(pi int32) {
	p := &t.pairs[pi]
	a, b := t.ends(p)
	t.unlist(a, p.sa)
	if p.sb >= 0 {
		t.unlist(b, p.sb)
	}
	t.due[pi] = dueFree
	t.free = append(t.free, pi)
}

// unlist swap-removes entry s of mover o's list, repointing the pair of
// the entry that moved into its place.
func (t *incrState) unlist(o, s int32) {
	lst := t.list(o)
	last := lst[len(lst)-1]
	lst[s] = last
	t.mover(o).n--
	if q := &t.pairs[last.pi]; q.a == o {
		q.sa = s
	} else {
		q.sb = s
	}
}

// issue sets pair pi's next check: the first step on which, under its
// endpoints' current rate bounds, either link predicate could flip. The
// computation is branch-free: a zero rate (nothing assumed to move or
// decay) makes the quotient +Inf, capped at maxCert, or NaN, which
// converts below 1 and checks at the next step; either way any motion is
// a bound violation that rechecks the pair first.
func (t *incrState) issue(pi int32, ra, rb *nodeRec, d2 float64, now int32) {
	d := math.Sqrt(d2)
	gap := min(math.Abs(d-ra.r), math.Abs(d-rb.r)) - certSlack
	k := int32(min(gap/(ra.rate+rb.rate), maxCert))
	if k < 1 {
		k = 1
	}
	t.due[pi] = now + k
}

// recheck decides pair pi with the full rebuild's predicate, edits the
// links whose bit flipped, and reissues its certificate — or holds it for
// a hot endpoint's walk next step.
func (w *World) recheck(pi int32, now int32) {
	t := w.incr
	p := &t.pairs[pi]
	ra := &t.rec[p.a]
	la := t.links[ra.off+p.sa]
	b := la.y()
	rb := &t.rec[b]
	dx, dy := rb.p.X-ra.p.X, rb.p.Y-ra.p.Y
	d2 := dx*dx + dy*dy
	wasAB, wasBA := la.bits()
	if ab, ba := d2 <= ra.r2, d2 <= rb.r2; ab != wasAB || ba != wasBA {
		if ab != wasAB {
			w.editLink(NodeID(p.a), NodeID(b), ab)
		}
		if ba != wasBA {
			w.editLink(NodeID(b), NodeID(p.a), ba)
		}
		t.setBits(pi, ab, ba)
	}
	if ra.hot || rb.hot {
		t.due[pi] = dueHeld
		return
	}
	t.issue(pi, ra, rb, d2, now)
}

// setBits records pair pi's link bits in both endpoints' list entries.
func (t *incrState) setBits(pi int32, ab, ba bool) {
	p := &t.pairs[pi]
	la := &t.list(p.a)[p.sa]
	la.setBits(ab, ba)
	if p.sb >= 0 {
		lb := &t.list(la.y())[p.sb]
		lb.setBits(ba, ab)
	}
}

// walkHot rechecks every pair on hot mover x's list — the one-step
// certificates its last checks held there — with the full rebuild's
// predicate, reading the link bits from the list. The pairs stay held:
// x is hot this step too, so it walks them again next step.
func (w *World) walkHot(x int32) {
	t := w.incr
	rx := &t.rec[x]
	lst := t.list(x)
	for i := range lst {
		l := &lst[i]
		ry := &t.rec[l.y()]
		dx, dy := ry.p.X-rx.p.X, ry.p.Y-rx.p.Y
		d2 := dx*dx + dy*dy
		if out, in := d2 <= rx.r2, d2 <= ry.r2; out != (l.yb&linkOut != 0) || in != (l.yb&linkIn != 0) {
			w.flipLink(x, l, out, in)
		}
	}
}

// flipLink applies the decision (out, in) for the pair of hot mover x's
// list entry l, whose bits differ from it: edits the links that flipped
// and records the new bits.
func (w *World) flipLink(x int32, l *link, out, in bool) {
	was, wasIn := l.bits()
	y := l.y()
	if out != was {
		w.editLink(NodeID(x), NodeID(y), out)
	}
	if in != wasIn {
		w.editLink(NodeID(y), NodeID(x), in)
	}
	if pi := l.pi; w.incr.pairs[pi].a == x {
		w.incr.setBits(pi, out, in)
	} else {
		w.incr.setBits(pi, in, out)
	}
}

// resyncAfterFullRebuild refreshes the node records, lists and
// certificates (nodes moved, batteries drained — and fault events may have
// degraded or restored any radio or respawned any node — while full-
// rebuild steps ran; the grid was rebuilt by those steps already) and the
// group-2 decay cursors, as of the step before the current one.
func (w *World) resyncAfterFullRebuild() {
	w.resyncPairs(int32(w.step) - 1)
	w.fillDecayCursors()
}

// stepIncremental is the churn-proportional Step body: move and re-bucket
// the nodes that actually moved, drain batteries, then repair the link
// graph in place.
func (w *World) stepIncremental() {
	t := w.incr
	if t.stale {
		w.resyncAfterFullRebuild()
		t.stale = false
	}
	now := int32(w.step)
	sp := w.m.mobility.Start()
	var dead []bool
	if w.flt != nil {
		dead = w.flt.dead
	}
	for i, id := range t.mobile {
		// Dead nodes freeze: mover not stepped (RNG pauses), position
		// unchanged — identical to the full-rebuild path.
		if dead != nil && dead[id] {
			continue
		}
		// The grid stores each node's position as of its last Update, i.e.
		// the pre-step position.
		old := w.grid.Pos(id)
		np := w.fleet.StepOne(int(id), w.pos[id])
		w.pos[id] = np
		r, m := &t.rec[id], &t.mov[i]
		if r.hot {
			// Last step's checks held its pairs on its list.
			r.hot = false
			t.flag(id, pendRecheck)
		}
		if np == old {
			// A dwelling mover assumes it stays put: its pairs' next
			// certificates stretch, and the move that ends the dwell is a
			// bound violation. Lowering a bound needs no reissue, since
			// the live certificates assumed at least this one.
			if m.spd != 0 {
				m.spd = 0
				r.rate = t.dec[id]
			}
			continue
		}
		w.grid.Update(id, np)
		r.p = np
		if d2 := old.Dist2(np); d2 > m.spd*m.spd {
			m.spd = math.Sqrt(d2) * boundHeadroom
			r.rate = m.spd + t.dec[id]
			t.flag(id, pendRecheck)
		}
		r.hot = m.spd >= hotSpeed
		// Reset strayed anchors before any scan, so every node's margin
		// share stays within 2*skin while lists are rebuilt.
		if off2 := np.Dist2(m.anchor); off2 > skin*skin {
			m.anchor = np
			r.ext = skin
			t.flag(id, pendRebuild)
		} else {
			r.ext = skin + math.Sqrt(off2)
		}
	}
	sp.Stop()
	sp = w.m.decay.Start()
	w.advanceDecay()
	sp.Stop()
	sp = w.m.rebuild.Start()
	w.applyChurn(now)
	sp.Stop()
}

// mover returns mover x's list state.
func (t *incrState) mover(x int32) *moverRec { return &t.mov[t.ord[x]] }

// flag marks mover id for this step's list pass.
func (t *incrState) flag(id int32, what uint8) {
	m := t.mover(id)
	if m.pend == 0 {
		t.dirty = append(t.dirty, id)
	}
	m.pend |= what
}

// advanceDecay drains the decaying radios one step, rolls their records'
// ranges, and checks each drop against the node's decay bound.
func (w *World) advanceDecay() {
	t := w.incr
	for _, id := range t.decayIds {
		r := &t.rec[id]
		w.radios[id].Step()
		nr := w.radios[id].Range()
		if drop := r.r - nr; drop > t.dec[id] {
			t.dec[id] = drop * boundHeadroom
			r.rate = t.dec[id]
			if t.ord[id] >= 0 {
				r.rate += t.mover(id).spd
				t.flag(id, pendRecheck)
			} else {
				t.recheckAll = true
			}
		}
		r.r, r.r2 = nr, sqOrNeg(nr)
	}
}

// editLink applies one pair edit — insert (add) or remove the directed
// edge u→v — and streams it. A pair's link bits mirror the graph, so every
// edit flips an edge.
func (w *World) editLink(u, v NodeID, add bool) {
	if add {
		w.topo.InsertEdgeSorted(u, v)
		w.deltas.add(u, v)
		return
	}
	w.topo.RemoveEdgeSorted(u, v)
	w.deltas.remove(u, v)
}

// rebuildList rebuilds mover x's candidate list around its new anchor:
// listed pairs still within the margin keep their certificates (rechecked
// too when recheckOld, i.e. x also broke a bound), new partners are
// checked from "no link", and pairs past the margin are settled — the
// predicate is false there — and dropped.
func (w *World) rebuildList(x int32, now int32, recheckOld bool) {
	t := w.incr
	if t.gen >= math.MaxUint32-2 {
		clear(t.mark) // wraparound: no stale stamp may equal a new gen
		t.gen = 0
	}
	t.gen += 2
	gen := t.gen
	for i, l := range t.list(x) {
		t.mark[l.y()] = partnerMark{gen: gen, i: int32(i)}
	}
	w.scanList(x)
	rx := &t.rec[x]
	for _, c := range t.cand {
		if c.y == x {
			continue
		}
		if mk := &t.mark[c.y]; mk.gen == gen {
			mk.gen = gen + 1
			// Appends below leave old entries in place, so mk.i holds.
			switch l := &t.links[rx.off+mk.i]; {
			case !recheckOld:
			case rx.hot:
				if out, in := c.d2 <= rx.r2, c.d2 <= t.rec[c.y].r2; out != (l.yb&linkOut != 0) || in != (l.yb&linkIn != 0) {
					w.flipLink(x, l, out, in)
				}
			default:
				w.recheck(l.pi, now)
			}
			continue
		}
		// Untracked until now, so no link: the coverage argument held up
		// to the previous step.
		w.recheck(t.newPair(x, c.y), now)
	}
	for i := int32(0); i < t.mover(x).n; {
		l := t.list(x)[i]
		if t.mark[l.y()].gen != gen {
			i++
			continue
		}
		w.recheck(l.pi, now)
		t.dropPair(l.pi) // swap-removes slot i; revisit it
	}
}

// applyChurn repairs the topology after movers re-bucketed and batteries
// drained, streaming every edge edit into w.deltas.
func (w *World) applyChurn(now int32) {
	t := w.incr
	g := w.topo
	// Bound violations, strayed movers and hot walks first: their
	// certificates or lists no longer hold. A pair reached twice in a step
	// is decided twice; the second decision finds no flip.
	if t.recheckAll {
		for pi := range t.pairs {
			if t.due[pi] != dueFree {
				w.recheck(int32(pi), now)
			}
		}
		t.recheckAll = false
	}
	for _, x := range t.dirty {
		m := t.mover(x)
		switch {
		case m.pend&pendRebuild != 0:
			w.rebuildList(x, now, m.pend&pendRecheck != 0)
		case t.rec[x].hot:
			w.walkHot(x)
		default:
			for _, l := range t.list(x) {
				w.recheck(l.pi, now)
			}
		}
		m.pend = 0
	}
	t.dirty = t.dirty[:0]
	// Then the certificates expiring this step; a reissue moves due past
	// now, so a pair is never met twice.
	for pi, d := range t.due {
		if d == now {
			w.recheck(int32(pi), now)
		}
	}
	// Group-2 removals: each decaying static source's cursor advances
	// while its shrinking range excludes the next-farthest static target.
	// RemoveEdgeSorted reports whether the edge still existed, which keeps
	// the stream exact even if full-rebuild steps (mode toggles) already
	// dropped some cursor edges.
	for i := range t.decay {
		dc := &t.decay[i]
		r := w.radios[dc.src].Range()
		r2 := r * r
		for dc.cursor < len(dc.d2) && (r <= 0 || dc.d2[dc.cursor] > r2) {
			if g.RemoveEdgeSorted(dc.src, dc.dst[dc.cursor]) {
				w.deltas.remove(dc.src, dc.dst[dc.cursor])
			}
			dc.cursor++
		}
	}
}
