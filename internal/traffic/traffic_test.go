package traffic

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/routing"
)

// chainWorld builds a static bidirectional chain, gateway at node 0.
func chainWorld(t *testing.T, n int) *network.World {
	t.Helper()
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * 10, Y: 0}
		radios[i] = radio.New(10.5)
		movers[i] = mobility.Static{}
	}
	w, err := network.NewWorld(network.Config{
		Arena:     geom.Rect{MinX: 0, MinY: -1, MaxX: float64(n) * 10, MaxY: 1},
		Positions: pos,
		Radios:    radios,
		Movers:    movers,
		Gateways:  []NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// chainTables routes every node back along the chain.
func chainTables(w *network.World) *routing.Tables {
	ts := routing.NewTables(w.N(), 1)
	for u := 1; u < w.N(); u++ {
		ts.Update(NodeID(u), routing.Entry{
			Gateway: 0, NextHop: NodeID(u - 1), Hops: u, Updated: 0,
		})
	}
	return ts
}

func TestDeliveryOnPerfectTables(t *testing.T) {
	w := chainWorld(t, 5)
	ts := chainTables(w)
	g := NewGen(2, 0, 0, rng.New(1))
	for step := 0; step < 30; step++ {
		g.Step(step, w, ts, routing.Measurement{}, nil)
	}
	// Drain in-flight packets.
	gDrain := *g
	_ = gDrain
	g.PerStep = 0
	for step := 30; step < 45; step++ {
		g.Step(step, w, ts, routing.Measurement{}, nil)
	}
	st := g.Stats()
	if st.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if st.Delivered != st.Injected {
		t.Fatalf("perfect tables dropped packets: %+v", st)
	}
	if st.DeliveryRatio() != 1 {
		t.Fatalf("ratio = %v", st.DeliveryRatio())
	}
	if st.MeanHops() <= 0 || st.AgeSum < st.HopsSum {
		t.Fatalf("hops/latency implausible: hops=%d steps in flight=%d", st.HopsSum, st.AgeSum)
	}
}

func TestNoRouteDrops(t *testing.T) {
	w := chainWorld(t, 4)
	ts := routing.NewTables(w.N(), 1) // empty tables
	g := NewGen(1, 0, 0, rng.New(2))
	for step := 0; step < 10; step++ {
		g.Step(step, w, ts, routing.Measurement{}, nil)
	}
	st := g.Stats()
	if st.Delivered != 0 {
		t.Fatal("delivered without routes")
	}
	if st.Dropped[DropNoRoute] == 0 {
		t.Fatalf("expected no-route drops: %+v", st.Dropped)
	}
	if st.DeliveryRatio() != 0 {
		t.Fatalf("ratio = %v", st.DeliveryRatio())
	}
}

func TestDeadLinkDrops(t *testing.T) {
	w := chainWorld(t, 4)
	ts := routing.NewTables(w.N(), 1)
	// Node 3 points at node 1, which is out of radio range.
	ts.Update(3, routing.Entry{Gateway: 0, NextHop: 1, Hops: 2, Updated: 0})
	g := NewGen(0, 0, 0, rng.New(3))
	g.flight = append(g.flight, packet{at: 3, ttl: 10, visited: map[NodeID]bool{3: true}})
	g.stats.Injected++
	g.Step(0, w, ts, routing.Measurement{}, nil)
	if g.Stats().Dropped[DropDeadLink] != 1 {
		t.Fatalf("dead link not detected: %+v", g.Stats().Dropped)
	}
}

func TestLoopDrops(t *testing.T) {
	w := chainWorld(t, 4)
	ts := routing.NewTables(w.N(), 1)
	// 2 → 3 → 2 loop.
	ts.Update(2, routing.Entry{Gateway: 0, NextHop: 3, Hops: 1, Updated: 0})
	ts.Update(3, routing.Entry{Gateway: 0, NextHop: 2, Hops: 1, Updated: 0})
	g := NewGen(0, 0, 0, rng.New(4))
	g.flight = append(g.flight, packet{at: 2, ttl: 50, visited: map[NodeID]bool{2: true}})
	g.stats.Injected++
	for step := 0; step < 5 && len(g.flight) > 0; step++ {
		g.Step(step, w, ts, routing.Measurement{}, nil)
	}
	if g.Stats().Dropped[DropLoop] != 1 {
		t.Fatalf("loop not detected: %+v", g.Stats().Dropped)
	}
}

func TestTTLDrops(t *testing.T) {
	w := chainWorld(t, 8)
	ts := chainTables(w)
	g := NewGen(0, 2, 0, rng.New(5)) // TTL 2: far nodes can't make it
	g.flight = append(g.flight, packet{at: 7, ttl: 2, visited: map[NodeID]bool{7: true}})
	g.stats.Injected++
	for step := 0; step < 10 && len(g.flight) > 0; step++ {
		g.Step(step, w, ts, routing.Measurement{}, nil)
	}
	if g.Stats().Dropped[DropTTL] != 1 {
		t.Fatalf("TTL not enforced: %+v", g.Stats().Dropped)
	}
}

func TestWarmupSuppressesInjection(t *testing.T) {
	w := chainWorld(t, 4)
	ts := chainTables(w)
	g := NewGen(3, 0, 5, rng.New(6))
	for step := 0; step < 5; step++ {
		g.Step(step, w, ts, routing.Measurement{}, nil)
	}
	if g.Stats().Injected != 0 {
		t.Fatal("injected during warmup")
	}
	g.Step(5, w, ts, routing.Measurement{}, nil)
	if g.Stats().Injected == 0 {
		t.Fatal("no injection after warmup")
	}
}

func TestIntegrationWithRoutingRun(t *testing.T) {
	// End-to-end: agents maintain tables, packets flow over them, and the
	// delivery ratio roughly tracks the end-to-end connectivity.
	w, err := netgen.Generate(netgen.Spec{
		N: 120, TargetEdges: 960, ArenaSide: 70, RangeSpread: 0.25,
		Mobility: netgen.MobilityRandom, MobileFraction: 0.5,
		MinSpeed: 0.1, MaxSpeed: 0.5,
		Gateways: 8, RangeBoost: 1.5,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGen(3, 32, 60, rng.New(9))
	sc := routing.Scenario{
		Agents: 40, Kind: core.PolicyOldestNode, Steps: 200,
		Observer: gen.Step,
	}
	res, err := routing.Run(w, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := gen.Stats()
	if st.Injected < 300 {
		t.Fatalf("too few packets: %+v", st)
	}
	ratio := st.DeliveryRatio()
	if ratio <= 0 {
		t.Fatal("no packets delivered over agent tables")
	}
	// Delivery (single-entry forwarding) should be within a plausible
	// band around the strict end-to-end connectivity.
	if ratio < res.MeanEndToEnd*0.3 {
		t.Fatalf("delivery ratio %v implausibly below end-to-end connectivity %v", ratio, res.MeanEndToEnd)
	}
}
