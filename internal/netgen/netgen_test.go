package netgen

import (
	"math"
	"testing"

	"repro/internal/network"
)

func TestGenerateValidation(t *testing.T) {
	tests := []struct {
		name string
		spec Spec
	}{
		{"zero N", Spec{TargetEdges: 10, ArenaSide: 10}},
		{"zero edges", Spec{N: 10, ArenaSide: 10}},
		{"zero arena", Spec{N: 10, TargetEdges: 10}},
		{"too many gateways", Spec{N: 5, TargetEdges: 10, ArenaSide: 10, Gateways: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Generate(tt.spec, 1); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}

func TestMapping300Shape(t *testing.T) {
	w, err := Generate(Mapping300(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 300 {
		t.Fatalf("N = %d", w.N())
	}
	m := w.Topology().M()
	if math.Abs(float64(m-2164)) > 2164*0.02 {
		t.Fatalf("edges = %d, want ~2164", m)
	}
	if !w.Topology().StronglyConnected() {
		t.Fatal("mapping world must be strongly connected")
	}
	if w.Dynamic() {
		t.Fatal("mapping world should be static")
	}
}

func TestMapping300HeterogeneousRanges(t *testing.T) {
	w, err := Generate(Mapping300(), 7)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for u := 0; u < w.N(); u++ {
		r := w.Radio(network.NodeID(u))
		distinct[r.Range()] = true
	}
	if len(distinct) < w.N()/2 {
		t.Fatalf("ranges look homogeneous: %d distinct", len(distinct))
	}
	// Asymmetric links must exist somewhere.
	g := w.Topology()
	asym := 0
	for u := 0; u < w.N(); u++ {
		for _, v := range g.Out(network.NodeID(u)) {
			if !g.HasEdge(v, network.NodeID(u)) {
				asym++
			}
		}
	}
	if asym == 0 {
		t.Fatal("heterogeneous ranges should produce asymmetric links")
	}
}

func TestRouting250Shape(t *testing.T) {
	w, err := Generate(Routing250(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 250 {
		t.Fatalf("N = %d", w.N())
	}
	if len(w.Gateways()) != 12 {
		t.Fatalf("gateways = %d", len(w.Gateways()))
	}
	if !w.Dynamic() {
		t.Fatal("routing world must be dynamic")
	}
	m := w.Topology().M()
	if math.Abs(float64(m-2000)) > 2000*0.05 {
		t.Fatalf("edges = %d, want ~2000", m)
	}
	// Physical connectivity to gateways should be high initially.
	if c := w.ConnectivityToGateways(); c < 0.8 {
		t.Fatalf("initial physical connectivity %v too low", c)
	}
}

func TestRoutingGatewaysStaticUnderMobility(t *testing.T) {
	w, err := Generate(Routing250(), 3)
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[network.NodeID][2]float64)
	for _, g := range w.Gateways() {
		p := w.Pos(g)
		before[g] = [2]float64{p.X, p.Y}
	}
	moved := 0
	positions0 := w.Positions()
	for i := 0; i < 20; i++ {
		w.Step()
	}
	for _, g := range w.Gateways() {
		p := w.Pos(g)
		if b := before[g]; p.X != b[0] || p.Y != b[1] {
			t.Fatalf("gateway %d moved", g)
		}
	}
	for u := 0; u < w.N(); u++ {
		if w.Pos(network.NodeID(u)) != positions0[u] {
			moved++
		}
	}
	// Half of the 238 non-gateway nodes should move.
	if moved < 100 || moved > 140 {
		t.Fatalf("moved nodes = %d, want ~119", moved)
	}
}

func TestRoutingGatewayRangeBoost(t *testing.T) {
	w, err := Generate(Routing250(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var gwMin, otherMax float64 = math.Inf(1), 0
	for u := 0; u < w.N(); u++ {
		r := w.Radio(network.NodeID(u)).BaseRange()
		if w.IsGateway(network.NodeID(u)) {
			if r < gwMin {
				gwMin = r
			}
		} else if r > otherMax {
			otherMax = r
		}
	}
	if gwMin <= otherMax*1.5/1.25*0.99 {
		// Gateways are at boost 1.5, non-gateways at most 1.25 of base.
		t.Fatalf("gateway ranges not boosted: gwMin=%v otherMax=%v", gwMin, otherMax)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Routing250(), 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Routing250(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Topology().Equal(b.Topology()) {
		t.Fatal("same seed produced different initial topologies")
	}
	for i := 0; i < 30; i++ {
		a.Step()
		b.Step()
	}
	if !a.Topology().Equal(b.Topology()) {
		t.Fatal("same seed diverged after stepping")
	}
	c, err := Generate(Routing250(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Topology().Equal(c.Topology()) {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestSmallSpecs(t *testing.T) {
	spec := Spec{N: 20, TargetEdges: 80, ArenaSide: 30, RangeSpread: 0.2, RequireStrong: true}
	w, err := Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Topology().StronglyConnected() {
		t.Fatal("RequireStrong violated")
	}
}

func TestPickGatewaysSpread(t *testing.T) {
	w, err := Generate(Routing250(), 11)
	if err != nil {
		t.Fatal(err)
	}
	gws := w.Gateways()
	// Farthest-point sampling should avoid tight clusters: min pairwise
	// distance among 12 gateways in a 100×100 arena must exceed a sanity
	// threshold.
	minD := math.Inf(1)
	for i := 0; i < len(gws); i++ {
		for j := i + 1; j < len(gws); j++ {
			if d := w.Pos(gws[i]).Dist(w.Pos(gws[j])); d < minD {
				minD = d
			}
		}
	}
	if minD < 10 {
		t.Fatalf("gateways cluster: min pairwise distance %v", minD)
	}
}

func TestDescribe(t *testing.T) {
	w, err := Generate(Spec{N: 10, TargetEdges: 30, ArenaSide: 20, MaxTries: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := Describe(w)
	if s == "" {
		t.Fatal("empty description")
	}
}

func BenchmarkGenerateMapping300(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Mapping300(), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlacementClustered(t *testing.T) {
	spec := Spec{
		N: 100, TargetEdges: 800, ArenaSide: 100,
		Placement: PlacementClustered, Clusters: 4, MaxTries: 64,
	}
	w, err := Generate(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Clustered layouts concentrate nodes: mean nearest-neighbour
	// distance must be clearly below the uniform layout's.
	uniform, err := Generate(Spec{
		N: 100, TargetEdges: 800, ArenaSide: 100, MaxTries: 64,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c, u := meanNearestNeighbour(w), meanNearestNeighbour(uniform); c >= u*0.9 {
		t.Fatalf("clustered NN distance %v not below uniform %v", c, u)
	}
}

func TestPlacementGrid(t *testing.T) {
	spec := Spec{
		N: 100, TargetEdges: 800, ArenaSide: 100,
		Placement: PlacementGrid, MaxTries: 64,
	}
	w, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Grid layouts are more even than uniform: the nearest-neighbour
	// distance varies less.
	var ds []float64
	for u := 0; u < w.N(); u++ {
		ds = append(ds, nearestNeighbour(w, network.NodeID(u)))
	}
	min, max := ds[0], ds[0]
	for _, d := range ds {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max > min*6 {
		t.Fatalf("grid layout too ragged: nn in [%v, %v]", min, max)
	}
}

func TestPlacementDeterministic(t *testing.T) {
	spec := Spec{
		N: 50, TargetEdges: 300, ArenaSide: 60,
		Placement: PlacementClustered, MaxTries: 64,
	}
	a, err := Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Topology().Equal(b.Topology()) {
		t.Fatal("clustered placement not deterministic")
	}
}

func meanNearestNeighbour(w *network.World) float64 {
	total := 0.0
	for u := 0; u < w.N(); u++ {
		total += nearestNeighbour(w, network.NodeID(u))
	}
	return total / float64(w.N())
}

func nearestNeighbour(w *network.World, u network.NodeID) float64 {
	best := math.Inf(1)
	pu := w.Pos(u)
	for v := 0; v < w.N(); v++ {
		if network.NodeID(v) == u {
			continue
		}
		if d := pu.Dist(w.Pos(network.NodeID(v))); d < best {
			best = d
		}
	}
	return best
}
