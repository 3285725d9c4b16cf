// Package netgen generates the wireless worlds the experiments run on.
//
// The paper evaluates on "a single connected network consisting of 300
// nodes with 2164 edges" (mapping) and a 250-node network with 12 gateway
// nodes (routing) but publishes neither coordinates nor adjacency. We
// therefore synthesise random geometric networks at the same scale: nodes
// placed uniformly in a square arena, per-node radio ranges sampled around
// a base range, and the base range binary-searched so the directed edge
// count hits the paper's target. Seeds are retried until the required
// connectivity property holds, so every generated world is usable and every
// (spec, seed) pair is reproducible.
package netgen

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/rng"
)

// PlacementKind selects how node positions are drawn.
type PlacementKind int

const (
	// PlacementUniform scatters nodes uniformly over the arena (the
	// paper: "nodes are distributed in a two dimension environment
	// randomly").
	PlacementUniform PlacementKind = iota
	// PlacementClustered drops nodes around a handful of cluster centres
	// — a campus of buildings rather than an open field.
	PlacementClustered
	// PlacementGrid arranges nodes on a jittered grid — a planned
	// deployment.
	PlacementGrid
)

// MobilityKind selects the movement model for mobile nodes.
type MobilityKind int

const (
	// MobilityNone makes every node stationary (mapping scenario).
	MobilityNone MobilityKind = iota
	// MobilityConstant gives each mobile node one shared speed
	// (the Kramer et al. assumption).
	MobilityConstant
	// MobilityRandom gives each mobile node a uniformly drawn speed
	// (the paper's modification).
	MobilityRandom
	// MobilityWaypoint uses the random-waypoint model (extension).
	MobilityWaypoint
)

// Spec describes a world to generate.
type Spec struct {
	N           int     // number of nodes
	TargetEdges int     // desired directed edge count
	ArenaSide   float64 // square arena side length
	RangeSpread float64 // per-node range factor drawn from [1-s, 1+s]

	// Placement selects the node layout (default uniform). Clusters is
	// the cluster count for PlacementClustered (default 5).
	Placement PlacementKind
	Clusters  int

	// Degradation: fraction of nodes whose radios decay, and how fast.
	BatteryFraction float64
	DecayPerStep    float64
	FloorFraction   float64

	// Mobility. MobileFraction of non-gateway nodes move.
	Mobility       MobilityKind
	MobileFraction float64
	MinSpeed       float64
	MaxSpeed       float64

	// Gateways: stationary, never battery-limited, RangeBoost × base range.
	Gateways   int
	RangeBoost float64

	// RequireStrong retries seeds until the topology is strongly
	// connected (mapping needs it so agents can reach every node).
	RequireStrong bool
	// MaxTries bounds the seed retries (default 128 — at ~2164 directed
	// edges on 300 nodes a single layout is strongly connected only part
	// of the time, so a generous budget keeps Generate effectively
	// infallible while staying deterministic).
	MaxTries int
}

// Mapping300 is the canonical mapping-scenario spec: 300 stationary nodes,
// 2164 directed edges, heterogeneous ranges, strongly connected.
func Mapping300() Spec {
	return Spec{
		N:             300,
		TargetEdges:   2164,
		ArenaSide:     100,
		RangeSpread:   0.25,
		Mobility:      MobilityNone,
		RequireStrong: true,
	}
}

// Routing250 is the canonical routing-scenario spec: 250 nodes, 12
// stationary boosted gateways, half of the other nodes mobile with random
// velocities and decaying batteries.
func Routing250() Spec {
	return Spec{
		N:               250,
		TargetEdges:     2000,
		ArenaSide:       100,
		RangeSpread:     0.25,
		BatteryFraction: 1, // applies to mobile nodes only, see build
		DecayPerStep:    0.0005,
		FloorFraction:   0.6,
		Mobility:        MobilityRandom,
		MobileFraction:  0.5,
		MinSpeed:        0.1,
		MaxSpeed:        0.5,
		Gateways:        12,
		RangeBoost:      1.5,
	}
}

// Generate builds a world from spec. The same (spec, seed) pair always
// yields the same world.
func Generate(spec Spec, seed uint64) (*network.World, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("netgen: N must be positive, got %d", spec.N)
	}
	if spec.TargetEdges <= 0 {
		return nil, fmt.Errorf("netgen: TargetEdges must be positive, got %d", spec.TargetEdges)
	}
	if spec.ArenaSide <= 0 {
		return nil, fmt.Errorf("netgen: ArenaSide must be positive")
	}
	if spec.Gateways >= spec.N {
		return nil, fmt.Errorf("netgen: %d gateways for %d nodes", spec.Gateways, spec.N)
	}
	maxTries := spec.MaxTries
	if maxTries <= 0 {
		maxTries = 128
	}
	root := rng.New(seed).Named("netgen")
	for try := 0; try < maxTries; try++ {
		w, err := build(spec, root.Child(uint64(try)))
		if err != nil {
			return nil, err
		}
		if !spec.RequireStrong || w.Topology().StronglyConnected() {
			return w, nil
		}
	}
	return nil, fmt.Errorf("netgen: no strongly connected layout in %d tries (N=%d, edges=%d)",
		maxTries, spec.N, spec.TargetEdges)
}

// layout draws one candidate's geometry from a stream: the arena, node
// positions, per-node range multipliers around the (searched) base range,
// and the gateways, whose multiplier is the range boost.
func layout(spec Spec, s *rng.Stream) (arena geom.Rect, pos []geom.Point, factors []float64, gateways []network.NodeID) {
	arena = geom.Square(spec.ArenaSide)
	pos = placeNodes(spec, s.Named("placement"))
	factors = make([]float64, spec.N)
	rs := s.Named("ranges")
	for i := range factors {
		if spec.RangeSpread > 0 {
			factors[i] = rs.Range(1-spec.RangeSpread, 1+spec.RangeSpread)
		} else {
			factors[i] = 1
		}
	}
	gateways = pickGateways(pos, spec.Gateways)
	boost := spec.RangeBoost
	if boost <= 0 {
		boost = 1
	}
	for _, g := range gateways {
		factors[g] = boost
	}
	return arena, pos, factors, gateways
}

// build assembles one candidate world from a stream.
func build(spec Spec, s *rng.Stream) (*network.World, error) {
	n := spec.N
	arena, pos, factors, gateways := layout(spec, s)
	isGateway := make([]bool, n)
	for _, g := range gateways {
		isGateway[g] = true
	}

	base := searchBaseRange(arena, pos, factors, spec.TargetEdges)

	// Mobility assignment: gateways are always static; a MobileFraction of
	// the remaining nodes move.
	mobile := make([]bool, n)
	if spec.Mobility != MobilityNone && spec.MobileFraction > 0 {
		candidates := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if !isGateway[i] {
				candidates = append(candidates, i)
			}
		}
		ms := s.Named("mobile-pick")
		ms.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		want := int(math.Round(spec.MobileFraction * float64(len(candidates))))
		for _, id := range candidates[:want] {
			mobile[id] = true
		}
	}

	radios := make([]radio.Radio, n)
	bs := s.Named("battery")
	for i := range radios {
		r := base * factors[i]
		decays := !isGateway[i] && spec.BatteryFraction > 0 &&
			(mobile[i] || spec.Mobility == MobilityNone) && bs.Bool(spec.BatteryFraction)
		if decays {
			radios[i] = radio.NewBattery(r, spec.DecayPerStep, spec.FloorFraction)
		} else {
			radios[i] = radio.New(r)
		}
	}

	movers := make([]mobility.Mover, n)
	vs := s.Named("velocity")
	for i := range movers {
		if !mobile[i] {
			movers[i] = mobility.Static{}
			continue
		}
		stream := vs.Child(uint64(i))
		switch spec.Mobility {
		case MobilityConstant:
			movers[i] = mobility.NewConstantVelocity(arena, spec.MaxSpeed, stream)
		case MobilityRandom:
			movers[i] = mobility.NewRandomVelocity(arena, spec.MinSpeed, spec.MaxSpeed, stream)
		case MobilityWaypoint:
			movers[i] = mobility.NewWaypoint(arena, spec.MinSpeed, spec.MaxSpeed, 5, stream)
		default:
			movers[i] = mobility.Static{}
		}
	}

	return network.NewWorld(network.Config{
		Arena:     arena,
		Positions: pos,
		Radios:    radios,
		Movers:    movers,
		Gateways:  gateways,
	})
}

// placeNodes draws node positions according to the spec's placement kind.
func placeNodes(spec Spec, place *rng.Stream) []geom.Point {
	n := spec.N
	side := spec.ArenaSide
	pos := make([]geom.Point, n)
	switch spec.Placement {
	case PlacementClustered:
		k := spec.Clusters
		if k <= 0 {
			k = 5
		}
		centres := make([]geom.Point, k)
		for i := range centres {
			centres[i] = geom.Point{X: place.Range(0, side), Y: place.Range(0, side)}
		}
		// Cluster spread scales with the room each cluster has.
		spread := side / (2 * math.Sqrt(float64(k)))
		arena := geom.Square(side)
		for i := range pos {
			c := centres[place.Intn(k)]
			p := geom.Point{
				X: c.X + place.Range(-spread, spread),
				Y: c.Y + place.Range(-spread, spread),
			}
			pos[i] = arena.Clamp(p)
		}
	case PlacementGrid:
		cols := int(math.Ceil(math.Sqrt(float64(n))))
		cell := side / float64(cols)
		arena := geom.Square(side)
		for i := range pos {
			cx := float64(i%cols)*cell + cell/2
			cy := float64(i/cols)*cell + cell/2
			jitter := cell / 3
			pos[i] = arena.Clamp(geom.Point{
				X: cx + place.Range(-jitter, jitter),
				Y: cy + place.Range(-jitter, jitter),
			})
		}
	default: // PlacementUniform
		for i := range pos {
			pos[i] = geom.Point{X: place.Range(0, side), Y: place.Range(0, side)}
		}
	}
	return pos
}

// pickGateways spreads k gateways over the node set by farthest-point
// sampling so that gateways cover the arena rather than clustering.
func pickGateways(pos []geom.Point, k int) []network.NodeID {
	if k <= 0 {
		return nil
	}
	n := len(pos)
	// Start from the node nearest the arena centre for determinism.
	var cx, cy float64
	for _, p := range pos {
		cx += p.X
		cy += p.Y
	}
	centre := geom.Point{X: cx / float64(n), Y: cy / float64(n)}
	first, bestD := 0, math.Inf(1)
	for i, p := range pos {
		if d := p.Dist2(centre); d < bestD {
			first, bestD = i, d
		}
	}
	chosen := []network.NodeID{network.NodeID(first)}
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = pos[i].Dist2(pos[first])
	}
	for len(chosen) < k {
		next, far := -1, -1.0
		for i := 0; i < n; i++ {
			if minDist[i] > far {
				next, far = i, minDist[i]
			}
		}
		chosen = append(chosen, network.NodeID(next))
		for i := 0; i < n; i++ {
			if d := pos[i].Dist2(pos[next]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return chosen
}

// searchIters is the number of bisection steps of searchBaseRange.
const searchIters = 48

// searchBaseRange binary-searches the base radio range so the directed
// edge count is as close as possible to target: it returns the smallest
// bisection point whose count reaches target, where node i links to every
// node within base×factors[i] exactly as geom.Grid.Within decides it.
//
// While the query discs still span many grid cells, each step counts
// edges directly and stops as soon as the count reaches target. Once the
// largest disc fits one cell, the candidate pairs — those linked at the
// current upper bound — are collected once. A pair's link test is
// monotone in the base range, so every pair linked at the lower bound
// stays linked and every pair unlinked at the upper bound stays
// unlinked; each later step tests only the pairs still undecided.
func searchBaseRange(arena geom.Rect, pos []geom.Point, factors []float64, target int) float64 {
	maxFactor := 0.0
	for _, f := range factors {
		if f > maxFactor {
			maxFactor = f
		}
	}
	hi := math.Sqrt(arena.Width()*arena.Width()+arena.Height()*arena.Height()) / maxFactor
	lo := 0.0
	cell := hi*maxFactor/8 + 1
	grid := geom.NewGrid(arena, len(pos), cell)
	grid.Rebuild(pos)
	iter := 0
	var buf []int32
	for ; iter < searchIters && hi*maxFactor > cell; iter++ {
		mid := (lo + hi) / 2
		if reachesTarget(grid, pos, factors, mid, target, &buf) {
			hi = mid
		} else {
			lo = mid
		}
	}
	if iter == searchIters {
		return hi
	}
	ps := pairSearches.Get().(*pairSearch)
	defer pairSearches.Put(ps)
	ps.reset(grid, pos, factors, lo, hi)
	for ; iter < searchIters; iter++ {
		mid := (lo + hi) / 2
		if ps.count(mid) < target {
			lo = mid
			ps.narrow(true)
		} else {
			hi = mid
			ps.narrow(false)
		}
	}
	return hi
}

// reachesTarget reports whether at least target directed links exist when
// every node i transmits to radius base×factors[i], stopping the count as
// soon as it gets there. buf is query scratch.
func reachesTarget(grid *geom.Grid, pos []geom.Point, factors []float64, base float64, target int, buf *[]int32) bool {
	total := 0
	for i := range pos {
		*buf = grid.Within(pos[i], base*factors[i], i, (*buf)[:0])
		total += len(*buf)
		if total >= target {
			return true
		}
	}
	return false
}

// candidate is a pair (src → the node in grid cell (cx, cy)) linked at
// the search's upper bound, with its squared distance computed as
// geom.Grid.Within computes it.
type candidate struct {
	src    int32
	cx, cy int32
	d2     float64
}

// pairSearch holds the pairs whose link the remaining bisection steps can
// still change, grouped by source, and the count of those linked for
// certain.
type pairSearch struct {
	grid    *geom.Grid
	pos     []geom.Point
	factors []float64
	linked  int
	pending []candidate
	hit     []bool // per pending pair: linked at the last counted base
}

// pairSearches recycles the candidate buffers from search to search.
var pairSearches = sync.Pool{New: func() any { return new(pairSearch) }}

// reset collects every pair linked at base hi — Within's own cell walk
// and distance test — and settles those already linked at base lo.
func (ps *pairSearch) reset(grid *geom.Grid, pos []geom.Point, factors []float64, lo, hi float64) {
	ps.grid, ps.pos, ps.factors = grid, pos, factors
	ps.linked, ps.pending = 0, ps.pending[:0]
	cols := grid.Cols()
	for i, p := range pos {
		r := hi * factors[i]
		minCX, maxCX, minCY, maxCY := grid.BoxCellRange(geom.Point{X: p.X - r, Y: p.Y - r}, geom.Point{X: p.X + r, Y: p.Y + r})
		r2 := r * r
		for cy := minCY; cy <= maxCY; cy++ {
			for cx := minCX; cx <= maxCX; cx++ {
				for _, e := range grid.CellBucket(cy*cols + cx) {
					if int(e.ID) == i {
						continue
					}
					dx, dy := e.X-p.X, e.Y-p.Y
					if d2 := dx*dx + dy*dy; d2 <= r2 {
						ps.pending = append(ps.pending, candidate{src: int32(i), cx: int32(cx), cy: int32(cy), d2: d2})
					}
				}
			}
		}
	}
	ps.count(lo)
	ps.narrow(true)
}

// count returns how many links exist at the given base range: the settled
// ones plus the pending pairs linked there, which it notes for narrow.
func (ps *pairSearch) count(base float64) int {
	ps.hit = slices.Grow(ps.hit[:0], len(ps.pending))[:len(ps.pending)]
	n := ps.linked
	src := int32(-1)
	var minCX, maxCX, minCY, maxCY int32
	var r2 float64
	for k := range ps.pending {
		c := &ps.pending[k]
		if c.src != src {
			src = c.src
			p := ps.pos[src]
			r := base * ps.factors[src]
			x0, x1, y0, y1 := ps.grid.BoxCellRange(geom.Point{X: p.X - r, Y: p.Y - r}, geom.Point{X: p.X + r, Y: p.Y + r})
			minCX, maxCX, minCY, maxCY = int32(x0), int32(x1), int32(y0), int32(y1)
			r2 = r * r
		}
		hit := c.cx >= minCX && c.cx <= maxCX && c.cy >= minCY && c.cy <= maxCY && c.d2 <= r2
		ps.hit[k] = hit
		if hit {
			n++
		}
	}
	return n
}

// narrow applies the last count's verdict. raisedLo: the counted base
// became the lower bound, so the pairs linked there are linked for
// certain. Otherwise it became the upper bound, and the pairs unlinked
// there never link again.
func (ps *pairSearch) narrow(raisedLo bool) {
	kept := ps.pending[:0]
	for k, c := range ps.pending {
		switch {
		case ps.hit[k] && raisedLo:
			ps.linked++
		case ps.hit[k] || raisedLo:
			kept = append(kept, c)
		}
	}
	ps.pending = kept
}

// Describe returns a one-line summary of a world, handy for CLI output.
func Describe(w *network.World) string {
	g := w.Topology()
	st := g.OutDegreeStats()
	scc := len(g.LargestSCC())
	diam, connected := g.Diameter()
	diamStr := fmt.Sprintf("%d", diam)
	if !connected {
		diamStr += "(partial)"
	}
	return fmt.Sprintf("nodes=%d edges=%d outdeg[min=%d mean=%.1f max=%d] largestSCC=%d diameter=%s gateways=%d dynamic=%v",
		w.N(), g.M(), st.Min, st.Mean, st.Max, scc, diamStr, len(w.Gateways()), w.Dynamic())
}
