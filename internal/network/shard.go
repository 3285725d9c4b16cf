package network

import (
	"math"

	"repro/internal/parallel"
)

// This file implements spatially sharded world stepping: the grid's cell
// columns are partitioned into S contiguous vertical bands, and one step's
// work — mover updates, class-3 disc scans, dwell-expiry checks, decay
// cursors — is split by band and run concurrently, with a deterministic
// halo exchange for the edits that cross a band boundary. The resulting
// topology is bit-identical to the sequential incremental path (and hence
// to a full rebuild) at any shard count, which the equivalence, fuzz, and
// snapshot tests in this package pin.
//
// Ownership. Every node belongs to the band covering its grid column;
// bandOf[] tracks that persistently and is updated (serially) for the
// nodes that moved this step, so ownership always reflects the post-move
// position — the same position the grid buckets hold during the scan
// phase. Row u of the topology (u's out-list) is owned by u's band: only
// the owning shard mutates it during a parallel phase. Edits a scan
// discovers for a row it does not own (the halo: a moved node near a
// boundary links to, or drops, a neighbour across it, so the NEIGHBOUR's
// out-list must change) are buffered as edge ops and applied in a fixed
// band-then-scan order merge between phases. Since the incremental
// engine's predicates touch each directed edge at most once per step, the
// buffered ops are disjoint and the merge order can never change the
// outcome — it exists to keep the churn accounting exact and the memory
// accesses serial.
//
// Phase structure of one sharded step (∥ = parallel over bands, — = serial):
//
//	∥ mobility     each band steps its own movers (per-node RNG streams
//	               make mover order irrelevant), writes their node
//	               records and a band-local max displacement
//	— re-bucket    grid updates for moved nodes in ascending id order
//	               (identical to the sequential path), band re-assignment
//	               for boundary crossers, per-band scan lists
//	— decay        radio drain + node-record range roll (tiny)
//	∥ scan (P1)    the class-3 kernel for owned moved nodes (the one the
//	               sequential path runs); ops on foreign rows go to the
//	               band's halo buffer
//	— merge (M1)   apply halo buffers band by band
//	∥ expiry (P2)  classes 4/5 for owned dwelling movers and class-2
//	               cursors for owned static decaying sources; class-4
//	               removals on foreign rows go to the halo buffer
//	— merge (M2)   apply the removal buffers, fold edge-count deltas and
//	               churn counters, invalidate the reverse adjacency
//
// Workers come from the process-wide budget in internal/parallel, claimed
// per step through a parallel.Group: outer run-level pools claim for whole
// batches and therefore win, and an exhausted budget degrades every phase
// to an inline sequential loop over the bands — same results, one
// goroutine. All per-band scratch (scan lists, halo buffers, counters) is
// pre-sized and reused, so the sharded path stays allocation-free in
// steady state.

// edgeOp is one buffered halo edit: insert (add=true) or remove the
// directed edge u→v in a row some other shard owns.
type edgeOp struct {
	u, v NodeID
	add  bool
}

// worldShard is one band's working state. It is the band's churnSink
// for the class-3 kernel.
type worldShard struct {
	w       *World
	band    int32
	mobile  []int32  // owned mobility-capable ids this step, ascending
	scan    []int32  // owned ids that moved this step, ascending
	cursors []int32  // indices into incr.decay owned by this band
	ops     []edgeOp // halo buffer: P1 cross-band edits, in scan order
	rmOps   []edgeOp // halo buffer: P2 cross-band class-4 removals
	outBuf  []int32  // class-5 out-walk scratch
	// Topology-watch capture, filled only while a watcher is attached:
	// this band's decided edits, folded serially into the watch buffer at
	// the end of the step. Halo ops are captured at decision time too
	// (before the merge applies them), which can over-report — allowed by
	// the TopoDeltas contract.
	dAddU, dAddV []NodeID
	dRemU, dRemV []NodeID
	maxDisp2     float64
	added        uint64
	removed      uint64
	mDelta       int
}

// shardState is the per-world state of sharded stepping (nil when
// sharding is disabled).
type shardState struct {
	bands     int
	colToBand []int32 // grid column -> band
	bandOf    []int32 // node id -> band of its current grid position
	maxDisp   float64 // this step's max displacement, for the scan phase
	shards    []worldShard
	group     parallel.Group

	// Phase method values are bound once at setup: evaluating w.moveShard
	// at a Do call site would allocate a closure every step.
	moveFn, scanFn, expireFn func(int)
}

// SetShardWorkers partitions the world grid into s vertical bands stepped
// concurrently (s <= 1 disables sharding and restores the sequential
// incremental path). The sharded and sequential paths produce bit-identical
// topologies at every step and any shard count, so this is purely a
// performance knob — it can be flipped at any step boundary. Static worlds
// ignore it. Shard workers are drawn from the shared parallel budget;
// when outer run-level parallelism has claimed the budget, shards degrade
// to sequential execution within the step.
func (w *World) SetShardWorkers(s int) {
	if w.incr == nil {
		return
	}
	if cols := w.grid.Cols(); s > cols {
		s = cols // a band needs at least one column
	}
	if s <= 1 {
		w.shard = nil
		return
	}
	n := w.N()
	cols := w.grid.Cols()
	st := &shardState{
		bands:     s,
		colToBand: make([]int32, cols),
		bandOf:    make([]int32, n),
		shards:    make([]worldShard, s),
	}
	for c := 0; c < cols; c++ {
		st.colToBand[c] = int32(c * s / cols)
	}
	for b := range st.shards {
		st.shards[b].w, st.shards[b].band = w, int32(b)
	}
	for u := 0; u < n; u++ {
		st.bandOf[u] = st.colToBand[w.grid.ColOf(w.grid.Pos(int32(u)))]
	}
	// Class-2 cursors belong to static sources, so their band assignment
	// never changes.
	for i := range w.incr.decay {
		b := st.bandOf[w.incr.decay[i].src]
		st.shards[b].cursors = append(st.shards[b].cursors, int32(i))
	}
	st.moveFn, st.scanFn, st.expireFn = w.moveShard, w.scanShard, w.expireShard
	w.shard = st
}

// ShardWorkers returns the configured shard count (1 = sharding disabled).
func (w *World) ShardWorkers() int {
	if w.shard == nil {
		return 1
	}
	return w.shard.bands
}

// stepSharded is the sharded counterpart of stepIncremental; see the file
// comment for the phase structure.
func (w *World) stepSharded() {
	t := w.incr
	st := w.shard
	if t.stale {
		w.resyncAfterFullRebuild()
		// Full-rebuild interludes moved nodes without maintaining the band
		// stamps — and fault respawns can teleport even static nodes — so
		// re-derive every stamp from the grid, then re-partition the decay
		// cursors to match (cursor row ownership must agree with bandOf).
		for u := 0; u < w.N(); u++ {
			st.bandOf[u] = st.colToBand[w.grid.ColOf(w.grid.Pos(int32(u)))]
		}
		for b := range st.shards {
			st.shards[b].cursors = st.shards[b].cursors[:0]
		}
		for i := range t.decay {
			b := st.bandOf[t.decay[i].src]
			st.shards[b].cursors = append(st.shards[b].cursors, int32(i))
		}
		t.stale = false
	}
	st.group.Acquire(st.bands)
	defer st.group.Release()

	// Partition the mobility-capable nodes by their pre-step band. Bands
	// are filled in ascending id order, preserving the lower-id-scans-first
	// pair dedup rule within each band (across bands the rule is an id
	// compare, so execution order never matters).
	for b := range st.shards {
		sh := &st.shards[b]
		sh.mobile = sh.mobile[:0]
		sh.scan = sh.scan[:0]
		sh.ops = sh.ops[:0]
		sh.rmOps = sh.rmOps[:0]
		sh.dAddU, sh.dAddV = sh.dAddU[:0], sh.dAddV[:0]
		sh.dRemU, sh.dRemV = sh.dRemU[:0], sh.dRemV[:0]
		sh.maxDisp2 = 0
		sh.added, sh.removed, sh.mDelta = 0, 0, 0
	}
	for _, id := range t.mobile {
		b := st.bandOf[id]
		st.shards[b].mobile = append(st.shards[b].mobile, id)
	}

	// ∥ mobility: each band steps its owned movers.
	sp := w.m.mobility.Start()
	st.group.Do(st.bands, st.moveFn)
	maxDisp2 := 0.0
	for b := range st.shards {
		if st.shards[b].maxDisp2 > maxDisp2 {
			maxDisp2 = st.shards[b].maxDisp2
		}
	}
	// — re-bucket: grid updates in ascending id order (the sequential
	// path's order), band re-assignment for boundary crossers, and the
	// per-band scan lists for P1.
	for _, id := range t.mobile {
		if !t.rec[id].moved {
			continue
		}
		w.grid.Update(id, w.pos[id])
		nb := st.colToBand[w.grid.ColOf(w.pos[id])]
		st.bandOf[id] = nb
		st.shards[nb].scan = append(st.shards[nb].scan, id)
	}
	sp.Stop()

	// — decay: same serial loop as the sequential path.
	sp = w.m.decay.Start()
	w.advanceDecay()
	sp.Stop()

	sp = w.m.rebuild.Start()
	// ∥ P1: class-3 box scans per band.
	st.maxDisp = math.Sqrt(maxDisp2)
	st.group.Do(st.bands, st.scanFn)
	// — M1: apply the halo buffers. Ops are disjoint per directed edge, so
	// order cannot change the topology; band-then-scan order is fixed
	// anyway to keep replay deterministic.
	for b := range st.shards {
		sh := &st.shards[b]
		for _, op := range sh.ops {
			if op.add {
				if w.topo.InsertEdgeSortedLocal(op.u, op.v) {
					sh.mDelta++
				}
			} else if w.topo.RemoveEdgeSortedLocal(op.u, op.v) {
				sh.mDelta--
			}
		}
	}
	// ∥ P2: dwell expiry (classes 4/5) and class-2 cursors per band.
	st.group.Do(st.bands, st.expireFn)
	// — M2: apply cross-band class-4 removals; the existence check keeps
	// the removed counter exact, as in the sequential path.
	added, removed, mDelta := uint64(0), uint64(0), 0
	for b := range st.shards {
		sh := &st.shards[b]
		for _, op := range sh.rmOps {
			if w.topo.RemoveEdgeSortedLocal(op.u, op.v) {
				sh.removed++
				sh.mDelta--
			}
		}
		added += sh.added
		removed += sh.removed
		mDelta += sh.mDelta
	}
	w.topo.AddM(mDelta)
	w.topo.InvalidateIn()
	if dl := w.watch; dl != nil {
		// Fold the per-band captures into the watch buffer, band order.
		for b := range st.shards {
			sh := &st.shards[b]
			for i := range sh.dAddU {
				dl.add(sh.dAddU[i], sh.dAddV[i])
			}
			for i := range sh.dRemU {
				dl.remove(sh.dRemU[i], sh.dRemV[i])
			}
		}
	}
	sp.Stop()
	w.m.linksAdded.Add(added)
	w.m.linksRemoved.Add(removed)
	w.m.edges.Set(float64(w.topo.M()))
}

// moveShard steps band b's movers. Positions and node records are indexed
// by node id and each node has exactly one owner, so the writes of
// concurrent bands are disjoint; movers own per-node RNG streams, so
// stepping order is unobservable.
func (w *World) moveShard(b int) {
	t := w.incr
	sh := &w.shard.shards[b]
	var dead []bool
	if w.flt != nil {
		dead = w.flt.dead
	}
	for _, id := range sh.mobile {
		r := &t.rec[id]
		if dead != nil && dead[id] {
			r.moved = false
			continue
		}
		old := w.grid.Pos(id)
		np := w.fleet.StepOne(int(id), w.pos[id])
		w.pos[id] = np
		r.prev = old
		r.moved = np != old
		if !r.moved {
			continue
		}
		if d2 := old.Dist2(np); d2 > sh.maxDisp2 {
			sh.maxDisp2 = d2
		}
	}
}

// scanShard runs the class-3 kernel for band b's moved nodes, with the
// band itself as the edit sink.
func (w *World) scanShard(b int) {
	sh := &w.shard.shards[b]
	for _, vi := range sh.scan {
		w.scanMoved(vi, w.shard.maxDisp, sh)
	}
}

// edit is the band's class-3 edit sink. Row v of a moved node v is always
// owned (v's scan runs on v's band); row w of a candidate is owned only if
// w sits in this band, otherwise the edit crosses the boundary and joins
// the halo buffer for M1. Churn is counted at decision time, exactly as
// the sequential path does for class 3.
func (sh *worldShard) edit(u, v NodeID, add bool) {
	w := sh.w
	if w.shard.bandOf[u] == sh.band {
		if add {
			w.topo.InsertEdgeSortedLocal(u, v)
			sh.mDelta++
		} else {
			w.topo.RemoveEdgeSortedLocal(u, v)
			sh.mDelta--
		}
	} else {
		sh.ops = append(sh.ops, edgeOp{u: u, v: v, add: add})
	}
	if add {
		sh.added++
	} else {
		sh.removed++
	}
	if w.watch != nil {
		if add {
			sh.dAddU = append(sh.dAddU, u)
			sh.dAddV = append(sh.dAddV, v)
		} else {
			sh.dRemU = append(sh.dRemU, u)
			sh.dRemV = append(sh.dRemV, v)
		}
	}
}

// expireShard runs classes 4/5 for band b's dwelling movers and the
// class-2 cursors of its static decaying sources. Class-4 removals touch
// the SOURCE's row; when the source lives across the boundary the removal
// is buffered for M2 (counted there on success, mirroring the sequential
// existence check). Class-5 and class-2 rows are owned by construction.
func (w *World) expireShard(b int) {
	t := w.incr
	st := w.shard
	sh := &st.shards[b]
	g := w.topo
	bandOf := st.bandOf
	me := int32(b)
	watching := w.watch != nil
	for _, vi := range sh.mobile {
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
				src := lst[k].src
				if bandOf[src] == me {
					if g.RemoveEdgeSortedLocal(src, NodeID(vi)) {
						sh.removed++
						sh.mDelta--
					}
				} else {
					sh.rmOps = append(sh.rmOps, edgeOp{u: src, v: NodeID(vi)})
				}
				if watching {
					sh.dRemU = append(sh.dRemU, src)
					sh.dRemV = append(sh.dRemV, NodeID(vi))
				}
				lst[k] = lst[len(lst)-1]
				lst = lst[:len(lst)-1]
			}
			t.inDecay[vi] = lst
		}
		if rv.r2cur == rv.r2prev {
			continue
		}
		cr2 := rv.r2cur
		pv := w.pos[vi]
		sh.outBuf = sh.outBuf[:0]
		for _, tv := range g.Out(NodeID(vi)) {
			if pv.Dist2(w.pos[tv]) > cr2 {
				sh.outBuf = append(sh.outBuf, tv)
			}
		}
		for _, tv := range sh.outBuf {
			if g.RemoveEdgeSortedLocal(NodeID(vi), tv) {
				sh.removed++
				sh.mDelta--
				if watching {
					sh.dRemU = append(sh.dRemU, NodeID(vi))
					sh.dRemV = append(sh.dRemV, tv)
				}
			}
		}
	}
	for _, ci := range sh.cursors {
		dc := &t.decay[ci]
		r := w.radios[dc.src].Range()
		r2 := r * r
		for dc.cursor < len(dc.d2) && (r <= 0 || dc.d2[dc.cursor] > r2) {
			if g.RemoveEdgeSortedLocal(dc.src, dc.dst[dc.cursor]) {
				sh.removed++
				sh.mDelta--
				if watching {
					sh.dRemU = append(sh.dRemU, dc.src)
					sh.dRemV = append(sh.dRemV, dc.dst[dc.cursor])
				}
			}
			dc.cursor++
		}
	}
}
