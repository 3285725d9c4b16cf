package baseline

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/routing"
)

// lookup returns node u's entry for gateway gw, if any.
func lookup(ts *routing.Tables, u, gw NodeID) (routing.Entry, bool) {
	for _, e := range ts.Entries(u) {
		if e.Gateway == gw {
			return e, true
		}
	}
	return routing.Entry{}, false
}

// chain builds a static bidirectional chain of n nodes, gateway at 0.
func chain(t *testing.T, n int) *network.World {
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

func TestFloodMapChain(t *testing.T) {
	w := chain(t, 6)
	res := FloodMap(w, 0)
	if !res.Complete {
		t.Fatal("flooding did not complete on a connected chain")
	}
	// A 6-chain has diameter 5: records from one end need 5 rounds.
	if res.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", res.Rounds)
	}
	if res.Messages == 0 || res.Bytes != res.Messages*recordBytes {
		t.Fatalf("message accounting wrong: %+v", res)
	}
}

func TestFloodMapSingleNode(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}}
	w, err := network.NewWorld(network.Config{
		Arena:     geom.Square(1),
		Positions: pos,
		Radios:    []radio.Radio{radio.New(1)},
		Movers:    []mobility.Mover{mobility.Static{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := FloodMap(w, 0)
	if !res.Complete || res.Rounds != 0 || res.Messages != 0 {
		t.Fatalf("single node should finish instantly: %+v", res)
	}
}

func TestFloodMapDisconnected(t *testing.T) {
	// Nodes out of radio range: flooding can never complete.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	w, err := network.NewWorld(network.Config{
		Arena:     geom.Square(100),
		Positions: pos,
		Radios:    []radio.Radio{radio.New(1), radio.New(1)},
		Movers:    []mobility.Mover{mobility.Static{}, mobility.Static{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := FloodMap(w, 10)
	if res.Complete || res.Rounds != -1 {
		t.Fatalf("disconnected network reported complete: %+v", res)
	}
}

func TestFloodMapGeneratedWorld(t *testing.T) {
	w, err := netgen.Generate(netgen.Spec{
		N: 80, TargetEdges: 560, ArenaSide: 60, RangeSpread: 0.25, RequireStrong: true,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := FloodMap(w, 0)
	if !res.Complete {
		t.Fatal("flooding failed on strongly connected world")
	}
	if res.Rounds <= 0 || res.Rounds > 40 {
		t.Fatalf("implausible round count %d", res.Rounds)
	}
	// Flooding must move at least one record per (node, record) pair
	// beyond the first.
	if res.Messages < w.N()*(w.N()-1) {
		t.Fatalf("message count %d implausibly low", res.Messages)
	}
}

func TestDistanceVectorChainConverges(t *testing.T) {
	w := chain(t, 6)
	dv := NewDistanceVector(w, 3)
	for i := 0; i < 6; i++ {
		dv.Step()
	}
	if got := dv.Measure(6).EndToEnd; got != 1 {
		t.Fatalf("DV connectivity on chain = %v, want 1", got)
	}
	ts := dv.Tables(6)
	// Node 5 must route via node 4 with 5 hops.
	e, ok := lookup(ts, 5, 0)
	if !ok || e.NextHop != 4 || e.Hops != 5 {
		t.Fatalf("entry at node 5 = %+v, %v", e, ok)
	}
	if dv.Messages == 0 {
		t.Fatal("no messages counted")
	}
}

func TestDistanceVectorConvergesGradually(t *testing.T) {
	w := chain(t, 8)
	dv := NewDistanceVector(w, 3)
	dv.Step()
	early := dv.Measure(1).EndToEnd
	for i := 0; i < 7; i++ {
		dv.Step()
	}
	late := dv.Measure(8).EndToEnd
	if early >= late {
		t.Fatalf("DV should converge gradually: early %v, late %v", early, late)
	}
}

func TestDistanceVectorExpiry(t *testing.T) {
	// Build a 2-node world where the link dies from battery decay; the
	// route must expire with it.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 9, Y: 0}}
	w, err := network.NewWorld(network.Config{
		Arena:     geom.Square(20),
		Positions: pos,
		Radios:    []radio.Radio{radio.New(10), radio.NewBattery(10, 0.05, 0)},
		Movers:    []mobility.Mover{mobility.Static{}, mobility.Static{}},
		Gateways:  []NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	dv := NewDistanceVector(w, 2)
	dv.Step()
	if got := dv.Measure(0).EndToEnd; got != 1 {
		t.Fatalf("initial DV connectivity = %v", got)
	}
	// Decay until the 1→0 link is gone (range 10·0.85 < 9 after 3 steps),
	// then let the route age out.
	for i := 0; i < 6; i++ {
		w.Step()
		dv.Step()
	}
	if got := dv.Measure(6).EndToEnd; got != 0 {
		t.Fatalf("expired route still counted: %v", got)
	}
}

func TestDistanceVectorOnMANET(t *testing.T) {
	w, err := netgen.Generate(netgen.Routing250(), 42)
	if err != nil {
		t.Fatal(err)
	}
	dv := NewDistanceVector(w, 3)
	for i := 0; i < 30; i++ {
		dv.Step()
		w.Step()
	}
	got := dv.Measure(30).EndToEnd
	ideal := w.ConnectivityToGateways()
	if got < ideal-0.15 {
		t.Fatalf("DV connectivity %v too far below ideal %v", got, ideal)
	}
}

// TestDistanceVectorGatewayFailure pins the distance vector's columns
// under gateway failure (the gwfail preset on Routing250): at every step
// every exported entry names the gateway of the column it comes from —
// next hop, hop count and age are that column's — and no entry names a
// gateway out of service. Every column keeps propagating while others'
// gateways are down, so each gateway still in service is named somewhere.
func TestDistanceVectorGatewayFailure(t *testing.T) {
	const steps = 300
	w, err := netgen.Generate(netgen.Routing250(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Preset("gwfail", w.N(), w.Gateways(), steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaults(sched)
	dv := NewDistanceVector(w, 3)
	column := make(map[NodeID]int, len(dv.gateways))
	for k, gw := range dv.gateways {
		column[gw] = k
	}
	downSteps := 0
	for step := 0; step < steps; step++ {
		dv.Step()
		ts := dv.Tables(step)
		named := make(map[NodeID]bool)
		for u := 0; u < w.N(); u++ {
			for _, e := range ts.Entries(NodeID(u)) {
				k, ok := column[e.Gateway]
				if !ok || !w.IsGateway(e.Gateway) {
					t.Fatalf("step %d node %d: entry %+v names no gateway in service", step, u, e)
				}
				if e.NextHop != dv.via[u][k] || e.Hops != int(dv.dist[u][k]) || e.Updated != step-int(dv.age[u][k]) {
					t.Fatalf("step %d node %d: entry %+v is not column %d's (gateway %d): via %d, %d hops, age %d",
						step, u, e, k, e.Gateway, dv.via[u][k], dv.dist[u][k], dv.age[u][k])
				}
				named[e.Gateway] = true
			}
		}
		if len(w.Gateways()) < len(dv.gateways) {
			downSteps++
			for _, gw := range w.Gateways() {
				if !named[gw] {
					t.Fatalf("step %d: no entry names gateway %d, in service", step, gw)
				}
			}
		}
		w.Step()
	}
	if downSteps == 0 {
		t.Fatal("no gateway went out of service; the failure path is untested")
	}
}

// TestDistanceVectorStepZeroAllocs pins that a warm exchange round
// allocates nothing: its offers table is kept from round to round.
func TestDistanceVectorStepZeroAllocs(t *testing.T) {
	w, err := netgen.Generate(netgen.Routing250(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dv := NewDistanceVector(w, 3)
	dv.Step()
	if got := testing.AllocsPerRun(20, dv.Step); got != 0 {
		t.Fatalf("a warm DistanceVector.Step allocates %.1f times, want 0", got)
	}
}
