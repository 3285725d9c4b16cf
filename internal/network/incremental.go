package network

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/mobility"
)

// This file implements the incremental topology engine: instead of
// rebuilding the whole directed link graph every step, the World mutates
// the previous step's graph in place, touching only the links that can
// have changed. Per-step link change in the paper's MANET scenarios is
// sparse churn — half the nodes are stationary, waypoint movers dwell at
// their destinations, and battery decay only ever shrinks ranges — so
// maintenance cost is proportional to the nodes that actually moved this
// step plus the links that actually churned, not to the whole graph.
//
// Edges fall into classes, each covered by exactly one mechanism:
//
//  1. static source → static target, source non-decaying: distance and
//     range are both constant, so the edge never changes — never touched.
//  2. static decaying source → static target: distance is constant and
//     Range() shrinks monotonically, so the edge can only disappear, once,
//     when the range crosses the fixed distance. Per source a list of
//     static targets sorted by descending distance plus a cursor turns
//     all such removals into an amortized O(removed)-per-step scan.
//  3. any pair with an endpoint that MOVED this step: re-derived from the
//     moved endpoint's candidate box scan (below), which checks both
//     directions of every candidate pair.
//  4. static decaying source → mobility-capable target that did NOT move
//     this step: distance is momentarily constant and the source's range
//     only shrinks, so — exactly as in class 2 — the edge can only
//     disappear. Each mobile node keeps the list of decaying static
//     sources currently linking to it (with the squared distance); while
//     it dwells, a per-step compare against the source's shrunk range
//     drops expired entries. The list is rebuilt from the box scan on
//     every step the node moves, so stored distances are always current.
//  5. mobility-capable DECAYING source that did not move this step →
//     anything: its own range shrank, so its out-edges can only
//     disappear; a walk over its current out-list removes targets that
//     fell out of range. Targets that moved this step were already
//     settled by their own box scan (class 3) with the same predicate, so
//     the two mechanisms always agree.
//
// Nodes are classified as mobility-capable by mover *type* (anything but
// mobility.Static), but only the ones whose position actually changed this
// step pay for a box scan: a Waypoint mover dwelling at its destination
// costs one position compare plus the class-4/5 cursor-style checks.
//
// Candidate coverage: let maxDisp be the largest displacement of any node
// this step, and reach = maxRange + maxDisp (plus a small float-safety
// slack). For a moved node v, any node w whose pair (v,w) had a link
// before this step or wants one after it lies — at its current, post-move
// position — within ONE disc, disc(v_old, reach): a link existed ⇒
// dist(v_old, w_old) ≤ maxRange and w moved ≤ maxDisp, so
// dist(v_old, w_new) ≤ reach; a link is wanted now ⇒
// dist(v_new, w_new) ≤ maxRange, and v itself moved ≤ maxDisp, so again
// dist(v_old, w_new) ≤ reach. The grid box covering that disc therefore
// contains every relevant w, and a single squared distance over the
// bucket-embedded position is the whole reject test. (The argument
// assumes positions stay inside the arena, which Rect.Bounce and the
// generators guarantee; the grid clamps outside positions into border
// cells, where a box query could miss them.)
//
// The class-3 kernel (scanMoved) decides each surviving candidate from
// two memory streams: the bucket entry (w's current position) and w's
// packed nodeRec — its pre-step position, which equals its current one
// unless it moved, its squared range before and after this step's decay,
// a moved flag and a static-decaying-source flag. With the pre-step
// position always valid, dOld needs no moved branch, and the two
// directions reduce to flip tests:
//
//	outFlip := (dNew <= cur(v)) != (dOld <= prev(v))   // v→w changed
//	inFlip  := (dNew <= cur(w)) != (dOld <= prev(w))   // w→v changed
//
// — the same membership predicate and float expressions as the full
// rebuild, evaluated on the pre-step snapshot and the current state. Only
// a flip enters the one rarely-taken branch, which holds the moved-pair
// dedupe (a pair of moved nodes appears in both box scans; the lower id's
// scan, which runs first, settles it) and the sorted out-list edits, so
// the maintained graph stays bit-identical to a full rebuild (pinned by
// the equivalence and fuzz tests in this package). No separate
// "farther than maxRange before and after" reject is needed: every range
// is at most maxRange, so such a pair cannot flip, and its class-4 test
// (dNew <= cur(w)) fails too.

// nodeRec is the packed per-node record the class-3 kernel reads for a
// surviving candidate: everything the flip test and the class-4 append
// need about w in one random access. It is the single source of truth for
// pre-step positions, cached squared ranges (sqOrNeg encoding) and moved
// flags; the mobility loops, advanceDecay and syncRecords maintain it.
type nodeRec struct {
	// prev is the pre-step position: the position before this step's move
	// for a node that moved, its current position otherwise.
	prev        geom.Point
	r2prev      float64 // squared range before this step's decay
	r2cur       float64 // squared range after it
	moved       bool    // position changed this step
	staticDecay bool    // static decaying source (classes 2 and 4)
}

// incrState is the per-world state of the incremental topology engine.
type incrState struct {
	mobile   []int32 // mobility-capable node ids, ascending
	isMobile []bool  // node id -> mover is not mobility.Static
	rec      []nodeRec
	decayIds []int32 // all decaying node ids (range refresh set)

	decaySrcs []int32 // static decaying sources (classes 2 and 4)
	decay     []decayCursor
	inDecay   [][]inSrc // mobile node id -> decaying static in-sources
	outBuf    []int32   // class-5 out-walk scratch

	// added and removed count this step's class-3 edits (see editLink).
	added, removed uint64

	// stale marks the node records and inDecay lists invalid: full-rebuild
	// steps move nodes, drain batteries, and rewrite the topology without
	// maintaining them, so the first incremental step after a mode toggle
	// resynchronizes from the world (decay cursors tolerate staleness on
	// their own).
	stale bool
}

// decayCursor tracks class-2 edges (static decaying source → static
// target): dst holds the source's static in-range targets by descending
// distance, and cursor advances — removing edges — as Range() shrinks
// below each stored distance. Ranges never grow, so the cursor never
// rewinds and every class-2 edge is removed exactly once.
type decayCursor struct {
	src    NodeID
	dst    []NodeID  // static targets, descending distance order
	d2     []float64 // squared distance to dst[i]
	cursor int
}

// inSrc is one class-4 entry: a decaying static source currently linking
// to a mobile node, with the squared distance between them. While the
// mobile node dwells the distance is constant, so the edge expires exactly
// when the source's squared range drops below d2.
type inSrc struct {
	src NodeID
	d2  float64
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

// initIncremental builds the engine state for a freshly constructed
// dynamic world: mover classification, the node records, the class-2
// decay cursors, and the class-4 in-source lists. Called after the initial
// rebuildTopology, so the grid and topology are populated.
func (w *World) initIncremental(movers []mobility.Mover) {
	n := w.N()
	t := &incrState{
		isMobile: make([]bool, n),
		rec:      make([]nodeRec, n),
		inDecay:  make([][]inSrc, n),
	}
	for i, m := range movers {
		if _, static := m.(mobility.Static); !static {
			t.isMobile[i] = true
			t.mobile = append(t.mobile, int32(i))
		}
	}
	for u := 0; u < n; u++ {
		if !w.radios[u].Decays() {
			continue
		}
		t.decayIds = append(t.decayIds, int32(u))
		if t.isMobile[u] {
			continue
		}
		t.rec[u].staticDecay = true
		t.decaySrcs = append(t.decaySrcs, int32(u))
		// One cursor per source, even when its target list is currently
		// empty: t.decay indices stay aligned with decaySrcs forever, which
		// the fault-resync cursor rebuild relies on (an empty cursor is a
		// no-op).
		t.decay = append(t.decay, decayCursor{src: NodeID(u)})
	}
	w.incr = t
	w.syncRecords()
	w.fillDecayCursors()
	w.rebuildInLists()
	// Pre-size the steady-state growth points so maintenance settles into
	// zero allocations at any n, not just small worlds: class-4 in-source
	// lists get headroom over their initial population, the class-5 walk
	// buffer starts at a realistic degree bound, and every adjacency row
	// migrates out of the CSR build with insert headroom (a CSR row's
	// first surgical insert would otherwise reallocate it, and rows at
	// their exact high-water degree would keep reallocating one by one).
	for _, vi := range t.mobile {
		if have := len(t.inDecay[vi]); cap(t.inDecay[vi]) < have+4 {
			grown := make([]inSrc, have, have+4)
			copy(grown, t.inDecay[vi])
			t.inDecay[vi] = grown
		}
	}
	t.outBuf = make([]int32, 0, 64)
	w.topo.OwnRows(8)
}

// rebuildInLists derives the class-4 in-source lists from the current
// topology and positions: for every decaying static source, each of its
// current mobile out-neighbours records the source and the (current)
// squared distance. Runs at init and after full-rebuild interludes.
func (w *World) rebuildInLists() {
	t := w.incr
	for _, vi := range t.mobile {
		t.inDecay[vi] = t.inDecay[vi][:0]
	}
	for _, ui := range t.decaySrcs {
		pu := w.pos[ui]
		for _, tv := range w.topo.Out(NodeID(ui)) {
			if t.isMobile[tv] {
				t.inDecay[tv] = append(t.inDecay[tv], inSrc{src: NodeID(ui), d2: pu.Dist2(w.pos[tv])})
			}
		}
	}
}

// fillDecayCursors (re)derives every class-2 cursor's target list from the
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
			if t.isMobile[v] {
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

// syncRecords re-derives every node record from the world: pre-step
// position = current position, no move, both squared ranges = the current
// one. The static-decay flag is fixed at init and kept.
func (w *World) syncRecords() {
	t := w.incr
	for u := range t.rec {
		r2 := sqOrNeg(w.radios[u].Range())
		t.rec[u] = nodeRec{prev: w.pos[u], r2prev: r2, r2cur: r2, staticDecay: t.rec[u].staticDecay}
	}
}

// resyncAfterFullRebuild refreshes the node records (nodes moved,
// batteries drained — and fault events may have degraded or restored any
// radio or respawned any node — while full-rebuild steps ran; the grid was
// rebuilt by those steps already), the class-2 decay cursors, and the
// class-4 lists.
func (w *World) resyncAfterFullRebuild() {
	w.syncRecords()
	w.fillDecayCursors()
	w.rebuildInLists()
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
	sp := w.m.mobility.Start()
	var dead []bool
	if w.flt != nil {
		dead = w.flt.dead
	}
	maxDisp2 := 0.0
	for _, id := range t.mobile {
		r := &t.rec[id]
		// Dead nodes freeze: mover not stepped (RNG pauses), position
		// unchanged — identical to the full-rebuild path.
		if dead != nil && dead[id] {
			r.moved = false
			continue
		}
		// The grid stores each node's position as of its last Update, i.e.
		// the pre-step position — the movement detector and the record's
		// pre-step position in one place.
		old := w.grid.Pos(id)
		w.pos[id] = w.fleet.StepOne(int(id), w.pos[id])
		r.prev = old
		r.moved = w.pos[id] != old
		if !r.moved {
			continue
		}
		if d2 := old.Dist2(w.pos[id]); d2 > maxDisp2 {
			maxDisp2 = d2
		}
		w.grid.Update(id, w.pos[id])
	}
	sp.Stop()
	sp = w.m.decay.Start()
	w.advanceDecay()
	sp.Stop()
	sp = w.m.rebuild.Start()
	added, removed := w.applyChurn(math.Sqrt(maxDisp2))
	sp.Stop()
	w.m.linksAdded.Add(added)
	w.m.linksRemoved.Add(removed)
	w.m.edges.Set(float64(w.topo.M()))
}

// advanceDecay drains the decaying radios one step and rolls their
// records' squared ranges.
func (w *World) advanceDecay() {
	t := w.incr
	for _, id := range t.decayIds {
		r := &t.rec[id]
		r.r2prev = r.r2cur
		w.radios[id].Step()
		r.r2cur = sqOrNeg(w.radios[id].Range())
	}
}

// editLink applies one class-3 edit: insert (add) or remove the directed
// edge u→v. Class-3 churn is counted and streamed at decision time,
// unconditionally.
func (w *World) editLink(u, v NodeID, add bool) {
	t := w.incr
	dl := w.watch
	if add {
		w.topo.InsertEdgeSorted(u, v)
		t.added++
		if dl != nil {
			dl.add(u, v)
		}
		return
	}
	w.topo.RemoveEdgeSorted(u, v)
	t.removed++
	if dl != nil {
		dl.remove(u, v)
	}
}

// scanMoved is the class-3 kernel: it settles every pair (vi, w) for the
// moved node vi — both directions — and rebuilds vi's class-4 in-source
// list, applying edits in candidate order (v→w before w→v). See the file
// comment for the coverage argument and the flip test.
func (w *World) scanMoved(vi int32, maxDisp float64) {
	t := w.incr
	rec := t.rec
	v := NodeID(vi)
	pOld, pNew := rec[vi].prev, w.pos[vi]
	pr2v, cr2v := rec[vi].r2prev, rec[vi].r2cur
	// The small absolute slack keeps the triangle-inequality containment
	// valid under float rounding; it admits a vanishing sliver of extra
	// candidates and can never exclude a real one.
	reach := w.maxRange + maxDisp + 1e-6
	reach2 := reach * reach
	lo := geom.Point{X: pOld.X - reach, Y: pOld.Y - reach}
	hi := geom.Point{X: pOld.X + reach, Y: pOld.Y + reach}
	x0, x1, y0, y1 := w.grid.BoxCellRange(lo, hi)
	cols := w.grid.Cols()
	ins := t.inDecay[vi][:0]
	for cy := y0; cy <= y1; cy++ {
		base := cy * cols
		for cx := x0; cx <= x1; cx++ {
			bucket := w.grid.CellBucket(base + cx)
			for bi := range bucket {
				e := &bucket[bi]
				// Beyond reach of pOld (measured to w's current position)
				// a candidate cannot have had a link, cannot want one, and
				// cannot hold a class-4 entry: reject on sequential bucket
				// data before the record load.
				dx, dy := pOld.X-e.X, pOld.Y-e.Y
				if dx*dx+dy*dy > reach2 {
					continue
				}
				dx, dy = pNew.X-e.X, pNew.Y-e.Y
				dNew := dx*dx + dy*dy
				wi := e.ID
				r := &rec[wi]
				dx, dy = pOld.X-r.prev.X, pOld.Y-r.prev.Y
				dOld := dx*dx + dy*dy
				outFlip := (dNew <= cr2v) != (dOld <= pr2v)
				inFlip := (dNew <= r.r2cur) != (dOld <= r.r2prev)
				if outFlip || inFlip {
					// Self never links; a moved pair belongs to the lower
					// id's scan.
					if wi != vi && (!r.moved || wi > vi) {
						if outFlip {
							w.editLink(v, wi, dNew <= cr2v)
						}
						if inFlip {
							w.editLink(wi, v, dNew <= r.r2cur)
						}
					}
				}
				if r.staticDecay && dNew <= r.r2cur {
					ins = append(ins, inSrc{src: wi, d2: dNew})
				}
			}
		}
	}
	t.inDecay[vi] = ins
}

// applyChurn repairs the topology after movers re-bucketed and batteries
// drained, returning the directed link churn (for the world's metrics —
// the same counts the full-rebuild path derives by diffing topologies).
func (w *World) applyChurn(maxDisp float64) (added, removed uint64) {
	t := w.incr
	g := w.topo
	// Topology watchers receive every edit this function decides on.
	// Class-3 emissions mirror the churn counters (recorded at decision
	// time, unconditionally); the success-gated classes emit inside their
	// success branches. Either way the stream may only over-report, which
	// the TopoDeltas contract allows.
	dl := w.watch
	// Class 3: one box scan per moved node, ascending id.
	t.added, t.removed = 0, 0
	for _, vi := range t.mobile {
		if t.rec[vi].moved {
			w.scanMoved(vi, maxDisp)
		}
	}
	added, removed = t.added, t.removed
	// Classes 4 and 5: mobile nodes that did not move this step. Their
	// stored distances are current (any move rebuilds the class-4 list
	// above and settles class-5 pairs), so expiry is a plain compare
	// against the shrunk squared range.
	for _, vi := range t.mobile {
		rv := &t.rec[vi]
		if rv.moved {
			continue
		}
		if lst := t.inDecay[vi]; len(lst) > 0 {
			for k := 0; k < len(lst); {
				if lst[k].d2 <= t.rec[lst[k].src].r2cur {
					k++
					continue
				}
				if g.RemoveEdgeSorted(lst[k].src, NodeID(vi)) {
					removed++
					if dl != nil {
						dl.remove(lst[k].src, NodeID(vi))
					}
				}
				lst[k] = lst[len(lst)-1]
				lst = lst[:len(lst)-1]
			}
			t.inDecay[vi] = lst
		}
		// sqOrNeg is injective on the non-negative ranges radios produce,
		// so comparing encodings detects exactly the real range changes.
		if rv.r2cur == rv.r2prev {
			continue
		}
		// Class 5: own range shrank while dwelling — out-edges can only
		// expire. Collect first: removal shifts the out-list in place.
		cr2 := rv.r2cur
		pv := w.pos[vi]
		t.outBuf = t.outBuf[:0]
		for _, tv := range g.Out(NodeID(vi)) {
			if pv.Dist2(w.pos[tv]) > cr2 {
				t.outBuf = append(t.outBuf, tv)
			}
		}
		for _, tv := range t.outBuf {
			if g.RemoveEdgeSorted(NodeID(vi), tv) {
				removed++
				if dl != nil {
					dl.remove(NodeID(vi), tv)
				}
			}
		}
	}
	// Class-2 removals: each decaying static source's cursor advances
	// while its shrinking range excludes the next-farthest static target.
	// RemoveEdgeSorted reports whether the edge still existed, which keeps
	// the churn counters exact even if full-rebuild steps (mode toggles)
	// already dropped some cursor edges.
	for i := range t.decay {
		dc := &t.decay[i]
		r := w.radios[dc.src].Range()
		r2 := r * r
		for dc.cursor < len(dc.d2) && (r <= 0 || dc.d2[dc.cursor] > r2) {
			if g.RemoveEdgeSorted(dc.src, dc.dst[dc.cursor]) {
				removed++
				if dl != nil {
					dl.remove(dc.src, dc.dst[dc.cursor])
				}
			}
			dc.cursor++
		}
	}
	return added, removed
}
