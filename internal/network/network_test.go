package network

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/rng"
)

// lineWorld places n nodes in a row `gap` apart, all with the given range.
func lineWorld(t *testing.T, n int, gap, rng_ float64, gateways ...NodeID) *World {
	t.Helper()
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * gap, Y: 0}
		radios[i] = radio.New(rng_)
		movers[i] = mobility.Static{}
	}
	w, err := NewWorld(Config{
		Arena:     geom.Rect{MinX: 0, MinY: -1, MaxX: float64(n) * gap, MaxY: 1},
		Positions: pos,
		Radios:    radios,
		Movers:    movers,
		Gateways:  gateways,
	})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	pos := []geom.Point{{X: 0, Y: 0}}
	if _, err := NewWorld(Config{
		Arena: geom.Square(1), Positions: pos,
		Radios: []radio.Radio{radio.New(1), radio.New(1)},
		Movers: []mobility.Mover{mobility.Static{}},
	}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := NewWorld(Config{
		Arena: geom.Square(1), Positions: pos,
		Radios:   []radio.Radio{radio.New(1)},
		Movers:   []mobility.Mover{mobility.Static{}},
		Gateways: []NodeID{5},
	}); err == nil {
		t.Fatal("out-of-range gateway accepted")
	}
	if _, err := NewWorld(Config{
		Arena: geom.Square(1), Positions: pos,
		Radios: []radio.Radio{{}},
		Movers: []mobility.Mover{mobility.Static{}},
	}); err == nil {
		t.Fatal("all-zero ranges accepted")
	}
}

func TestLineTopology(t *testing.T) {
	w := lineWorld(t, 5, 10, 10.5)
	g := w.Topology()
	for i := 0; i < 4; i++ {
		if !g.HasEdge(NodeID(i), NodeID(i+1)) || !g.HasEdge(NodeID(i+1), NodeID(i)) {
			t.Fatalf("missing adjacency at %d", i)
		}
	}
	if g.HasEdge(0, 2) {
		t.Fatal("unexpected long link")
	}
	if g.M() != 8 {
		t.Fatalf("edge count = %d, want 8", g.M())
	}
}

func TestAsymmetricLinks(t *testing.T) {
	// Node 0 has a long range, node 1 a short one: link 0→1 but not 1→0.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}
	w, err := NewWorld(Config{
		Arena:     geom.Square(10),
		Positions: pos,
		Radios:    []radio.Radio{radio.New(6), radio.New(2)},
		Movers:    []mobility.Mover{mobility.Static{}, mobility.Static{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Topology()
	if !g.HasEdge(0, 1) {
		t.Fatal("0→1 should exist")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("1→0 should not exist (short radio)")
	}
}

func TestStaticWorldSkipsRebuild(t *testing.T) {
	w := lineWorld(t, 4, 5, 6)
	if w.Dynamic() {
		t.Fatal("static world flagged dynamic")
	}
	before := w.Topology()
	w.Step()
	if w.Topology() != before {
		t.Fatal("static world rebuilt topology")
	}
	if w.StepCount() != 1 {
		t.Fatalf("StepCount = %d", w.StepCount())
	}
}

func TestBatteryDecayBreaksLinks(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 9, Y: 0}}
	w, err := NewWorld(Config{
		Arena:     geom.Square(20),
		Positions: pos,
		Radios:    []radio.Radio{radio.NewBattery(10, 0.05, 0), radio.New(10)},
		Movers:    []mobility.Mover{mobility.Static{}, mobility.Static{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Dynamic() {
		t.Fatal("battery world should be dynamic")
	}
	if !w.Topology().HasEdge(0, 1) {
		t.Fatal("initial link missing")
	}
	for i := 0; i < 5; i++ { // range drops to 10*(1-0.25)=7.5 < 9
		w.Step()
	}
	if w.Topology().HasEdge(0, 1) {
		t.Fatal("battery decay did not break 0→1")
	}
	if !w.Topology().HasEdge(1, 0) {
		t.Fatal("full-battery link 1→0 should survive")
	}
}

func TestMobilityChangesTopology(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}
	s := rng.New(4)
	w, err := NewWorld(Config{
		Arena:     geom.Square(100),
		Positions: pos,
		Radios:    []radio.Radio{radio.New(10), radio.New(10)},
		Movers: []mobility.Mover{
			mobility.Static{},
			mobility.NewConstantVelocity(geom.Square(100), 5, s),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	initial := w.Topology().M()
	for i := 0; i < 200 && !changed; i++ {
		w.Step()
		if w.Topology().M() != initial {
			changed = true
		}
	}
	if !changed {
		t.Fatal("mobile node never changed the topology in 200 steps")
	}
}

func TestGateways(t *testing.T) {
	w := lineWorld(t, 5, 5, 6, 0, 4, 0) // duplicate gateway collapses
	if len(w.Gateways()) != 2 {
		t.Fatalf("gateway count = %d", len(w.Gateways()))
	}
	if !w.IsGateway(0) || !w.IsGateway(4) || w.IsGateway(2) {
		t.Fatal("gateway flags wrong")
	}
}

func TestConnectivityToGateways(t *testing.T) {
	w := lineWorld(t, 5, 5, 6, 0)
	if got := w.ConnectivityToGateways(); got != 1 {
		t.Fatalf("chain fully connected, got %v", got)
	}
	// Break the chain: nodes 10 apart with range 6 — no links at all.
	w2 := lineWorld(t, 5, 10, 6, 0)
	if got := w2.ConnectivityToGateways(); got != 0 {
		t.Fatalf("disconnected world connectivity = %v", got)
	}
	// No gateways at all.
	w3 := lineWorld(t, 3, 5, 6)
	if got := w3.ConnectivityToGateways(); got != 0 {
		t.Fatalf("no-gateway world connectivity = %v", got)
	}
}

func TestPositionsCopied(t *testing.T) {
	w := lineWorld(t, 3, 5, 6)
	p := w.Positions()
	p[0] = geom.Point{X: 999, Y: 999}
	if w.Pos(0).X == 999 {
		t.Fatal("Positions leaked internal storage")
	}
}

func TestTopologyMatchesBruteForce(t *testing.T) {
	s := rng.New(17)
	n := 80
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := range pos {
		pos[i] = geom.Point{X: s.Range(0, 100), Y: s.Range(0, 100)}
		radios[i] = radio.New(s.Range(5, 20))
		movers[i] = mobility.Static{}
	}
	w, err := NewWorld(Config{Arena: geom.Square(100), Positions: pos, Radios: radios, Movers: movers})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Topology()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			want := pos[u].Dist(pos[v]) <= radios[u].Range()
			if got := g.HasEdge(NodeID(u), NodeID(v)); got != want {
				t.Fatalf("edge %d→%d: got %v want %v (d=%v r=%v)",
					u, v, got, want, pos[u].Dist(pos[v]), radios[u].Range())
			}
		}
	}
}

func TestWorldDeterministic(t *testing.T) {
	build := func() *World {
		s := rng.New(33)
		n := 40
		pos := make([]geom.Point, n)
		radios := make([]radio.Radio, n)
		movers := make([]mobility.Mover, n)
		for i := range pos {
			pos[i] = geom.Point{X: s.Range(0, 50), Y: s.Range(0, 50)}
			radios[i] = radio.NewBattery(s.Range(5, 15), 0.001, 0.3)
			movers[i] = mobility.NewRandomVelocity(geom.Square(50), 0.5, 2, s.Child(uint64(i)))
		}
		w, err := NewWorld(Config{Arena: geom.Square(50), Positions: pos, Radios: radios, Movers: movers})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := build(), build()
	for i := 0; i < 50; i++ {
		a.Step()
		b.Step()
		if !a.Topology().Equal(b.Topology()) {
			t.Fatalf("worlds diverged at step %d", i)
		}
		for u := 0; u < a.N(); u++ {
			if math.Abs(a.Pos(NodeID(u)).X-b.Pos(NodeID(u)).X) > 0 {
				t.Fatalf("positions diverged at step %d node %d", i, u)
			}
		}
	}
}

func BenchmarkWorldStep250Mobile(b *testing.B) {
	s := rng.New(1)
	n := 250
	arena := geom.Square(150)
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := range pos {
		pos[i] = geom.Point{X: s.Range(0, 150), Y: s.Range(0, 150)}
		radios[i] = radio.New(s.Range(10, 20))
		if i%2 == 0 {
			movers[i] = mobility.NewRandomVelocity(arena, 0.5, 3, s.Child(uint64(i)))
		} else {
			movers[i] = mobility.Static{}
		}
	}
	w, err := NewWorld(Config{Arena: arena, Positions: pos, Radios: radios, Movers: movers})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}
