package baseline

import (
	"repro/internal/network"
	"repro/internal/routing"
)

// DistanceVector is a DSDV-style routing baseline: every step each node
// exchanges its gateway-distance vector with its bidirectional neighbours
// and adopts the best offers. It is the message-heavy comparator for the
// agent-based router — near-ideal connectivity at a cost of
// O(edges × gateways) messages per step, versus the agents'
// O(population) migrations.
type DistanceVector struct {
	w      *network.World
	maxAge int

	dist    [][]int32  // node → gateway index → hop distance (-1 unknown)
	via     [][]NodeID // node → gateway index → next hop
	age     [][]int32  // node → gateway index → steps since refreshed
	gateIdx map[NodeID]int

	// tables holds the protocol state as routing entries, rewritten in
	// place by Tables and Measure; meter measures them; row is the
	// per-node scratch the rewrite fills.
	tables *routing.Tables
	meter  *routing.Meter
	row    []routing.Entry

	// Messages counts vector transmissions over links so far.
	Messages int
}

// NewDistanceVector initialises the protocol over w.
// maxAge is the route expiry in steps (entries not re-confirmed within it
// are dropped); <= 0 means 3.
func NewDistanceVector(w *network.World, maxAge int) *DistanceVector {
	if maxAge <= 0 {
		maxAge = 3
	}
	g := len(w.Gateways())
	dv := &DistanceVector{
		w:       w,
		maxAge:  maxAge,
		dist:    make([][]int32, w.N()),
		via:     make([][]NodeID, w.N()),
		age:     make([][]int32, w.N()),
		gateIdx: make(map[NodeID]int, g),
		tables:  routing.NewTables(w.N(), g),
	}
	dv.meter = routing.NewMeter(w, dv.tables)
	for i, gw := range w.Gateways() {
		dv.gateIdx[gw] = i
	}
	for u := 0; u < w.N(); u++ {
		dv.dist[u] = make([]int32, g)
		dv.via[u] = make([]NodeID, g)
		dv.age[u] = make([]int32, g)
		for k := range dv.dist[u] {
			dv.dist[u][k] = -1
		}
	}
	return dv
}

// Step runs one synchronous exchange round against the world's current
// topology. Call once per world step, before the world moves.
func (dv *DistanceVector) Step() {
	n := dv.w.N()
	topo := dv.w.Topology()
	g := len(dv.w.Gateways())

	// Age out stale routes; gateways always know themselves.
	for u := 0; u < n; u++ {
		for k := 0; k < g; k++ {
			if dv.dist[u][k] >= 0 {
				dv.age[u][k]++
				if dv.age[u][k] > int32(dv.maxAge) {
					dv.dist[u][k] = -1
				}
			}
		}
	}
	for _, gw := range dv.w.Gateways() {
		k := dv.gateIdx[gw]
		dv.dist[gw][k] = 0
		dv.age[gw][k] = 0
		dv.via[gw][k] = gw
	}

	// Synchronous exchange: node v learns from neighbour u when the link
	// is bidirectional (v needs v→u to forward and u→v to hear the
	// advertisement). Offers are computed against the pre-step snapshot.
	type cell struct {
		dist int32
		via  NodeID
	}
	offers := make([][]cell, n)
	for v := 0; v < n; v++ {
		offers[v] = make([]cell, g)
		for k := range offers[v] {
			offers[v][k] = cell{dist: -1}
		}
		for _, u := range topo.Out(NodeID(v)) {
			if !topo.HasEdge(u, NodeID(v)) {
				continue
			}
			dv.Messages++
			for k := 0; k < g; k++ {
				if dv.dist[u][k] < 0 {
					continue
				}
				d := dv.dist[u][k] + 1
				if offers[v][k].dist < 0 || d < offers[v][k].dist {
					offers[v][k] = cell{dist: d, via: u}
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if dv.w.IsGateway(NodeID(v)) {
			continue
		}
		for k := 0; k < g; k++ {
			o := offers[v][k]
			if o.dist < 0 {
				continue
			}
			if dv.dist[v][k] < 0 || o.dist <= dv.dist[v][k] {
				dv.dist[v][k] = o.dist
				dv.via[v][k] = o.via
				dv.age[v][k] = 0
			}
		}
	}
}

// Tables exports the protocol state as routing tables so the same
// connectivity metrics apply to baseline and agents alike: one entry per
// gateway a non-gateway node knows a route to. The tables are the
// protocol's own, rewritten in place by the next Tables or Measure.
func (dv *DistanceVector) Tables(step int) *routing.Tables {
	for u := 0; u < dv.w.N(); u++ {
		want := dv.row[:0]
		for k, gw := range dv.w.Gateways() {
			if dv.dist[u][k] < 0 || dv.w.IsGateway(NodeID(u)) {
				continue
			}
			want = append(want, routing.Entry{
				Gateway: gw,
				NextHop: dv.via[u][k],
				Hops:    int(dv.dist[u][k]),
				Updated: step - int(dv.age[u][k]),
			})
		}
		setRow(dv.tables, NodeID(u), want)
		dv.row = want
	}
	return dv.tables
}

// Measure exports the protocol's tables at step and measures them with the
// routing harness's Meter: local (next-hop liveness), end-to-end and ideal
// connectivity, and staleness. Measuring once per world step keeps the
// meter incremental; after skipped steps it recomputes.
func (dv *DistanceVector) Measure(step int) routing.Measurement {
	dv.Tables(step)
	return dv.meter.Measure(step)
}
