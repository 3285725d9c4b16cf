package netgen

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// searchBaseRangeRef is the base-range search as it was before the
// early-exit and pair-narrowing passes: 48 bisection steps, each counting
// every directed edge through geom.Grid.Within. It is the referee that
// searchBaseRange is pinned to, bit for bit.
func searchBaseRangeRef(arena geom.Rect, pos []geom.Point, factors []float64, target int) float64 {
	maxFactor := 0.0
	for _, f := range factors {
		if f > maxFactor {
			maxFactor = f
		}
	}
	hi := math.Sqrt(arena.Width()*arena.Width()+arena.Height()*arena.Height()) / maxFactor
	lo := 0.0
	grid := geom.NewGrid(arena, len(pos), hi*maxFactor/8+1)
	grid.Rebuild(pos)
	for iter := 0; iter < 48; iter++ {
		mid := (lo + hi) / 2
		if countEdgesRef(grid, pos, factors, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// countEdgesRef counts directed links if every node i transmits to radius
// base×factors[i].
func countEdgesRef(grid *geom.Grid, pos []geom.Point, factors []float64, base float64) int {
	total := 0
	var buf []int32
	for i := range pos {
		buf = grid.Within(pos[i], base*factors[i], i, buf[:0])
		total += len(buf)
	}
	return total
}

// TestSearchBaseRangeMatchesReference pins the base-range search to its
// referee bit for bit (math.Float64bits) on the layouts Generate draws:
// both canonical specs under every placement kind, over searchSeeds
// seeds each.
func TestSearchBaseRangeMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{{"Routing250", Routing250()}, {"Mapping300", Mapping300()}} {
		for _, pl := range []PlacementKind{PlacementUniform, PlacementClustered, PlacementGrid} {
			spec := tc.spec
			spec.Placement = pl
			t.Run(fmt.Sprintf("%s/placement=%d", tc.name, pl), func(t *testing.T) {
				t.Parallel()
				for seed := uint64(0); seed < searchSeeds; seed++ {
					arena, pos, factors, _ := layout(spec, rng.New(seed).Named("netgen").Child(0))
					got := searchBaseRange(arena, pos, factors, spec.TargetEdges)
					want := searchBaseRangeRef(arena, pos, factors, spec.TargetEdges)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d: base range %v (%#x), referee %v (%#x)",
							seed, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			})
		}
	}
}
