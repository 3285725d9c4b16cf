package routing

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/parallel"
	"repro/internal/radio"
	"repro/internal/trace"
)

// testSpec is a scaled-down Routing250 for fast tests.
func testSpec() netgen.Spec {
	return netgen.Spec{
		N: 120, TargetEdges: 960, ArenaSide: 70, RangeSpread: 0.25,
		BatteryFraction: 1, DecayPerStep: 0.0005, FloorFraction: 0.6,
		Mobility: netgen.MobilityRandom, MobileFraction: 0.5,
		MinSpeed: 0.1, MaxSpeed: 0.5,
		Gateways: 8, RangeBoost: 1.5,
	}
}

// freshWorld regenerates the same world trace every call, following the
// paper's "same node placement and movements in every run".
func freshWorld(seed uint64) func(int) (*network.World, error) {
	return func(int) (*network.World, error) { return netgen.Generate(testSpec(), seed) }
}

func TestRunValidation(t *testing.T) {
	w, err := netgen.Generate(netgen.Spec{N: 20, TargetEdges: 100, ArenaSide: 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, Scenario{Agents: 2}, 1); err == nil {
		t.Fatal("world without gateways accepted")
	}
	w2, err := netgen.Generate(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w2, Scenario{Agents: 2, Kind: core.PolicyConscientious}, 1); err == nil {
		t.Fatal("mapping policy accepted in routing")
	}
}

func TestConnectivityRampsFromZero(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, Scenario{Agents: 40, Kind: core.PolicyOldestNode, Steps: 200}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Connectivity[0] > 0.15 {
		t.Fatalf("connectivity should start near zero, got %v", res.Connectivity[0])
	}
	if res.Mean < 0.7 {
		t.Fatalf("converged connectivity too low: %v", res.Mean)
	}
	// End-to-end never exceeds the physical upper bound, and the local
	// metric never undercuts the end-to-end one (a live chain implies a
	// live first hop).
	for i := range res.EndToEnd {
		if res.EndToEnd[i] > res.Ideal[i]+1e-9 {
			t.Fatalf("step %d: end-to-end %v above ideal %v", i, res.EndToEnd[i], res.Ideal[i])
		}
		if res.EndToEnd[i] > res.Connectivity[i]+1e-9 {
			t.Fatalf("step %d: end-to-end %v above local %v", i, res.EndToEnd[i], res.Connectivity[i])
		}
	}
}

func TestOldestNodeBeatsRandom(t *testing.T) {
	// Low population makes the coverage advantage of oldest-node largest.
	sc := Scenario{Agents: 12, Steps: 200, HistorySize: 32}
	old := sc
	old.Kind = core.PolicyOldestNode
	rnd := sc
	rnd.Kind = core.PolicyRandom
	aggOld, err := RunMany(freshWorld(42), old, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	aggRnd, err := RunMany(freshWorld(42), rnd, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if aggOld.Mean.Mean <= aggRnd.Mean.Mean {
		t.Fatalf("oldest-node (%.3f) should beat random (%.3f)", aggOld.Mean.Mean, aggRnd.Mean.Mean)
	}
}

func TestMoreAgentsHigherConnectivity(t *testing.T) {
	small := Scenario{Agents: 8, Kind: core.PolicyOldestNode, Steps: 200}
	big := Scenario{Agents: 60, Kind: core.PolicyOldestNode, Steps: 200}
	aggS, err := RunMany(freshWorld(42), small, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	aggB, err := RunMany(freshWorld(42), big, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if aggB.Mean.Mean <= aggS.Mean.Mean {
		t.Fatalf("60 agents (%.3f) should beat 8 (%.3f)", aggB.Mean.Mean, aggS.Mean.Mean)
	}
}

func TestMoreHistoryHigherConnectivity(t *testing.T) {
	shortH := Scenario{Agents: 30, Kind: core.PolicyOldestNode, Steps: 200, HistorySize: 4}
	longH := Scenario{Agents: 30, Kind: core.PolicyOldestNode, Steps: 200, HistorySize: 48}
	aggS, err := RunMany(freshWorld(42), shortH, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	aggL, err := RunMany(freshWorld(42), longH, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if aggL.Mean.Mean <= aggS.Mean.Mean {
		t.Fatalf("history 48 (%.3f) should beat history 4 (%.3f)", aggL.Mean.Mean, aggS.Mean.Mean)
	}
}

func TestCommunicationHelpsRandomAgents(t *testing.T) {
	// The paper studies this across cache sizes; the benefit is largest
	// when agents forget quickly (small history).
	off := Scenario{Agents: 30, Kind: core.PolicyRandom, Steps: 200, HistorySize: 8}
	on := off
	on.Communicate = true
	aggOff, err := RunMany(freshWorld(42), off, 4, 70)
	if err != nil {
		t.Fatal(err)
	}
	aggOn, err := RunMany(freshWorld(42), on, 4, 70)
	if err != nil {
		t.Fatal(err)
	}
	if aggOn.Mean.Mean <= aggOff.Mean.Mean {
		t.Fatalf("communicating random (%.3f) should beat isolated (%.3f)",
			aggOn.Mean.Mean, aggOff.Mean.Mean)
	}
}

func TestCommunicationHurtsOldestNodeAgents(t *testing.T) {
	off := Scenario{Agents: 30, Kind: core.PolicyOldestNode, Steps: 200}
	on := off
	on.Communicate = true
	aggOff, err := RunMany(freshWorld(42), off, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	aggOn, err := RunMany(freshWorld(42), on, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	if aggOn.Mean.Mean >= aggOff.Mean.Mean {
		t.Fatalf("communicating oldest-node (%.3f) should lose to isolated (%.3f)",
			aggOn.Mean.Mean, aggOff.Mean.Mean)
	}
}

func TestStigmergyRescuesCommunicatingOldestNode(t *testing.T) {
	// The paper's future work: stigmergy should disperse agents. The
	// clearest case is the Fig 11 pathology — communicating oldest-node
	// agents chase each other after merging histories; footprints break
	// the chase and restore (even exceed) the isolated performance.
	comm := Scenario{Agents: 30, Kind: core.PolicyOldestNode, Steps: 200, Communicate: true}
	rescued := comm
	rescued.Stigmergy = true
	aggC, err := RunMany(freshWorld(42), comm, 4, 90)
	if err != nil {
		t.Fatal(err)
	}
	aggR, err := RunMany(freshWorld(42), rescued, 4, 90)
	if err != nil {
		t.Fatal(err)
	}
	if aggR.Mean.Mean <= aggC.Mean.Mean+0.05 {
		t.Fatalf("stigmergy (%.3f) should clearly rescue communicating oldest-node (%.3f)",
			aggR.Mean.Mean, aggC.Mean.Mean)
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := Scenario{Agents: 20, Kind: core.PolicyOldestNode, Communicate: true, Steps: 100}
	run := func() Result {
		w, err := netgen.Generate(testSpec(), 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, sc, 31)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Connectivity {
		if a.Connectivity[i] != b.Connectivity[i] {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	if a.Overhead != b.Overhead {
		t.Fatal("overhead diverged")
	}
}

func TestEngineEquivalence(t *testing.T) {
	// The deprecated Workers field is still set by callers; a run must be
	// bit-identical whatever it holds. The budget is spent so both runs
	// step their live world inline, not through a world-stepping helper.
	old := parallel.Budget()
	parallel.SetBudget(0)
	defer parallel.SetBudget(old)
	for _, base := range []Scenario{
		{Agents: 20, Kind: core.PolicyOldestNode, Communicate: true, Steps: 80},
		{Agents: 20, Kind: core.PolicyRandom, Stigmergy: true, Steps: 80},
	} {
		run := func(workers int) Result {
			w, err := netgen.Generate(testSpec(), 5)
			if err != nil {
				t.Fatal(err)
			}
			sc := base
			sc.Workers = workers
			res, err := Run(w, sc, 11)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(1), run(8)
		for i := range a.Connectivity {
			if a.Connectivity[i] != b.Connectivity[i] {
				t.Fatalf("runs diverged at step %d", i)
			}
		}
		if a.Overhead != b.Overhead {
			t.Fatal("overhead diverged across Workers settings")
		}
	}
}

func TestTablesBestAndReaches(t *testing.T) {
	// Hand-built chain: 0(gw) ← 1 ← 2, tables pointing back.
	w := lineWorldWithGateway(t)
	ts := NewTables(w.N(), 4)
	ts.Update(1, Entry{Gateway: 0, NextHop: 0, Hops: 1, Updated: 1})
	ts.Update(2, Entry{Gateway: 0, NextHop: 1, Hops: 2, Updated: 1})
	visited := make([]bool, w.N())
	if !Reaches(w, ts, 2, 10, visited) {
		t.Fatal("valid chain not detected")
	}
	if !Reaches(w, ts, 1, 10, visited) {
		t.Fatal("one-hop chain not detected")
	}
	if Reaches(w, ts, 3, 10, visited) {
		t.Fatal("node with empty table reached gateway")
	}
	if got := Connectivity(w, ts); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Connectivity = %v, want 2/3", got)
	}
}

func TestReachesDetectsLoop(t *testing.T) {
	w := lineWorldWithGateway(t)
	ts := NewTables(w.N(), 4)
	// 1 → 2 → 1 forwarding loop.
	ts.Update(1, Entry{Gateway: 0, NextHop: 2, Hops: 1, Updated: 1})
	ts.Update(2, Entry{Gateway: 0, NextHop: 1, Hops: 1, Updated: 1})
	visited := make([]bool, w.N())
	if Reaches(w, ts, 1, 100, visited) {
		t.Fatal("loop not detected")
	}
}

func TestReachesFailsOnBrokenLink(t *testing.T) {
	w := lineWorldWithGateway(t)
	ts := NewTables(w.N(), 4)
	// Entry points to a node that is not adjacent (no edge 3→0).
	ts.Update(3, Entry{Gateway: 0, NextHop: 0, Hops: 1, Updated: 1})
	visited := make([]bool, w.N())
	if Reaches(w, ts, 3, 10, visited) {
		t.Fatal("missing link not detected")
	}
}

func TestBestPrefersShorterThenFresher(t *testing.T) {
	ts := NewTables(3, 4)
	ts.Update(0, Entry{Gateway: 1, NextHop: 1, Hops: 3, Updated: 10})
	ts.Update(0, Entry{Gateway: 2, NextHop: 2, Hops: 1, Updated: 5})
	best, ok := ts.Best(0)
	if !ok || best.Gateway != 2 {
		t.Fatalf("Best = %+v, want gateway 2 (shorter)", best)
	}
	ts.Update(1, Entry{Gateway: 1, NextHop: 1, Hops: 2, Updated: 5})
	ts.Update(1, Entry{Gateway: 2, NextHop: 2, Hops: 2, Updated: 9})
	best, _ = ts.Best(1)
	if best.Gateway != 2 {
		t.Fatalf("Best = %+v, want fresher gateway 2", best)
	}
	if _, ok := ts.Best(2); ok {
		t.Fatal("empty table returned an entry")
	}
}

// lineWorldWithGateway builds the static chain 0—1—2—3 with node 0 as the
// gateway: nodes 10 apart with range 10.5, so only consecutive nodes link.
func lineWorldWithGateway(t *testing.T) *network.World {
	t.Helper()
	n := 4
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * 10, Y: 0}
		radios[i] = radio.New(10.5)
		movers[i] = mobility.Static{}
	}
	w, err := network.NewWorld(network.Config{
		Arena:     geom.Rect{MinX: 0, MinY: -1, MaxX: 40, MaxY: 1},
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

func TestTracedRoutingRun(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	sc := Scenario{Agents: 15, Kind: core.PolicyOldestNode, Communicate: true,
		Steps: 60, Tracer: &buf}
	res, err := Run(w, sc, 9)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[trace.Kind]int{}
	for _, e := range buf.Events() {
		counts[e.Kind]++
	}
	if counts[trace.KindMove] != res.Overhead.Moves {
		t.Fatalf("traced moves %d != overhead moves %d", counts[trace.KindMove], res.Overhead.Moves)
	}
	if counts[trace.KindDeposit] != res.Overhead.RouteDeposits {
		t.Fatalf("traced deposits %d != overhead deposits %d",
			counts[trace.KindDeposit], res.Overhead.RouteDeposits)
	}
	// Three measures per step: connectivity, end-to-end, ideal.
	if counts[trace.KindMeasure] != 3*60 {
		t.Fatalf("measures = %d", counts[trace.KindMeasure])
	}
}

// TestCommPathologyRobustAcrossWorlds guards the Fig 11 result against
// seed-overfitting: the communication penalty for oldest-node agents must
// hold on freshly drawn worlds, not just the calibration seed.
func TestCommPathologyRobustAcrossWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world robustness sweep is not short")
	}
	for _, worldSeed := range []uint64{42, 1043, 2044} {
		worldSeed := worldSeed
		off := Scenario{Agents: 30, Kind: core.PolicyOldestNode, Steps: 200}
		on := off
		on.Communicate = true
		aggOff, err := RunMany(freshWorld(worldSeed), off, 3, 500+worldSeed)
		if err != nil {
			t.Fatal(err)
		}
		aggOn, err := RunMany(freshWorld(worldSeed), on, 3, 500+worldSeed)
		if err != nil {
			t.Fatal(err)
		}
		if aggOn.Mean.Mean >= aggOff.Mean.Mean {
			t.Errorf("world %d: comm did not hurt oldest-node (%.3f vs %.3f)",
				worldSeed, aggOn.Mean.Mean, aggOff.Mean.Mean)
		}
	}
}
