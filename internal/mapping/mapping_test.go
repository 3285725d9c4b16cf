package mapping

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/trace"
)

var (
	worldOnce sync.Once
	testWorld *network.World
)

// smallSpec is a 60-node strongly connected static network.
func smallSpec() netgen.Spec {
	return netgen.Spec{
		N: 60, TargetEdges: 400, ArenaSide: 50, RangeSpread: 0.25,
		RequireStrong: true,
	}
}

// smallWorld returns a shared 60-node strongly connected static network.
func smallWorld(t *testing.T) *network.World {
	t.Helper()
	worldOnce.Do(func() {
		w, err := netgen.Generate(smallSpec(), 1234)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		testWorld = w
	})
	return testWorld
}

func staticFactory(w *network.World) func(int) (*network.World, error) {
	return func(int) (*network.World, error) { return w, nil }
}

func TestRunSingleAgentFinishes(t *testing.T) {
	w := smallWorld(t)
	res, err := Run(w, Scenario{Agents: 1, Kind: core.PolicyConscientious}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("single conscientious agent never finished")
	}
	if res.FinishStep <= 0 {
		t.Fatalf("FinishStep = %d", res.FinishStep)
	}
	if got := res.MinCurve[len(res.MinCurve)-1]; got != 1 {
		t.Fatalf("final MinCurve = %v", got)
	}
}

func TestCurvesMonotoneAndOrdered(t *testing.T) {
	w := smallWorld(t)
	res, err := Run(w, Scenario{Agents: 5, Kind: core.PolicyConscientious, Cooperate: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Curve {
		if i > 0 && res.Curve[i] < res.Curve[i-1]-1e-12 {
			t.Fatalf("avg curve decreased at %d", i)
		}
		if res.MinCurve[i] > res.Curve[i]+1e-12 {
			t.Fatalf("min curve above avg at %d", i)
		}
	}
}

func TestConscientiousBeatsRandom(t *testing.T) {
	w := smallWorld(t)
	con, err := RunMany(staticFactory(w), Scenario{Agents: 1, Kind: core.PolicyConscientious}, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RunMany(staticFactory(w), Scenario{Agents: 1, Kind: core.PolicyRandom}, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if con.Completed != 8 || rnd.Completed != 8 {
		t.Fatalf("completions: %d/%d", con.Completed, rnd.Completed)
	}
	if con.Finish.Mean >= rnd.Finish.Mean {
		t.Fatalf("conscientious (%.1f) should beat random (%.1f)", con.Finish.Mean, rnd.Finish.Mean)
	}
}

func TestStigmergySpeedsUpSingleAgent(t *testing.T) {
	w := smallWorld(t)
	runs := 10
	plain, err := RunMany(staticFactory(w), Scenario{Agents: 1, Kind: core.PolicyRandom}, runs, 55)
	if err != nil {
		t.Fatal(err)
	}
	stig, err := RunMany(staticFactory(w), Scenario{Agents: 1, Kind: core.PolicyRandom, Stigmergy: true}, runs, 55)
	if err != nil {
		t.Fatal(err)
	}
	if stig.Finish.Mean >= plain.Finish.Mean {
		t.Fatalf("stigmergic random (%.1f) should beat plain random (%.1f)",
			stig.Finish.Mean, plain.Finish.Mean)
	}
}

func TestCooperationSpeedsUpTeam(t *testing.T) {
	w := smallWorld(t)
	solo, err := RunMany(staticFactory(w), Scenario{Agents: 8, Kind: core.PolicyConscientious}, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	coop, err := RunMany(staticFactory(w), Scenario{Agents: 8, Kind: core.PolicyConscientious, Cooperate: true}, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if coop.Finish.Mean >= solo.Finish.Mean {
		t.Fatalf("cooperation (%.1f) should beat isolation (%.1f)", coop.Finish.Mean, solo.Finish.Mean)
	}
}

func TestMorePopulationFinishesFaster(t *testing.T) {
	w := smallWorld(t)
	small, err := RunMany(staticFactory(w), Scenario{Agents: 2, Kind: core.PolicyConscientious, Cooperate: true}, 6, 21)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunMany(staticFactory(w), Scenario{Agents: 12, Kind: core.PolicyConscientious, Cooperate: true}, 6, 21)
	if err != nil {
		t.Fatal(err)
	}
	if big.Finish.Mean >= small.Finish.Mean {
		t.Fatalf("12 agents (%.1f) should beat 2 agents (%.1f)", big.Finish.Mean, small.Finish.Mean)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorld(t)
	sc := Scenario{Agents: 6, Kind: core.PolicySuperConscientious, Cooperate: true, Stigmergy: true}
	a, err := Run(w, sc, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, sc, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinishStep != b.FinishStep || len(a.Curve) != len(b.Curve) {
		t.Fatalf("same seed diverged: %d vs %d", a.FinishStep, b.FinishStep)
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("curves diverged at %d", i)
		}
	}
	c, err := Run(w, sc, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.FinishStep == a.FinishStep && len(c.Curve) == len(a.Curve) {
		same := true
		for i := range a.Curve {
			if a.Curve[i] != c.Curve[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

func TestEngineEquivalence(t *testing.T) {
	// The deprecated Workers field is still set by callers; a run must be
	// bit-identical whatever it holds.
	w := smallWorld(t)
	for _, sc := range []Scenario{
		{Agents: 8, Kind: core.PolicyConscientious, Cooperate: true},
		{Agents: 8, Kind: core.PolicySuperConscientious, Cooperate: true, Stigmergy: true},
		{Agents: 8, Kind: core.PolicyRandom, Stigmergy: true},
	} {
		seq := sc
		seq.Workers = 1
		par := sc
		par.Workers = 8
		a, err := Run(w, seq, 77)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(w, par, 77)
		if err != nil {
			t.Fatal(err)
		}
		if a.FinishStep != b.FinishStep {
			t.Fatalf("%v: runs diverged: %d vs %d", sc.Kind, a.FinishStep, b.FinishStep)
		}
		for i := range a.Curve {
			if a.Curve[i] != b.Curve[i] {
				t.Fatalf("%v: curves diverged at step %d", sc.Kind, i)
			}
		}
		if a.Overhead != b.Overhead {
			t.Fatalf("%v: overhead diverged: %+v vs %+v", sc.Kind, a.Overhead, b.Overhead)
		}
	}
}

func TestMaxStepsBudget(t *testing.T) {
	w := smallWorld(t)
	res, err := Run(w, Scenario{Agents: 1, Kind: core.PolicyRandom, MaxSteps: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished || res.FinishStep != -1 {
		t.Fatal("tiny budget should not finish")
	}
	if len(res.Curve) != 3 {
		t.Fatalf("curve length = %d", len(res.Curve))
	}
}

func TestRunManyAggregates(t *testing.T) {
	w := smallWorld(t)
	agg, err := RunMany(staticFactory(w), Scenario{Agents: 4, Kind: core.PolicyConscientious, Cooperate: true}, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 5 || agg.Completed != 5 {
		t.Fatalf("runs=%d completed=%d", agg.Runs, agg.Completed)
	}
	if len(agg.FinishTimes) != 5 || agg.Finish.N != 5 {
		t.Fatal("finish times missing")
	}
	if len(agg.AvgCurve) == 0 || agg.AvgCurve[len(agg.AvgCurve)-1] < 0.99 {
		t.Fatalf("avg curve should approach 1: %v", agg.AvgCurve[len(agg.AvgCurve)-1])
	}
	if agg.Overhead.Moves == 0 {
		t.Fatal("no overhead recorded")
	}
	if _, err := RunMany(staticFactory(w), Scenario{}, 0, 1); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestOverheadStigmergyMarks(t *testing.T) {
	w := smallWorld(t)
	res, err := Run(w, Scenario{Agents: 2, Kind: core.PolicyConscientious, Stigmergy: true, Cooperate: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead.MarksLeft == 0 {
		t.Fatal("stigmergic run left no marks")
	}
	plain, err := Run(w, Scenario{Agents: 2, Kind: core.PolicyConscientious, Cooperate: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Overhead.MarksLeft != 0 {
		t.Fatal("non-stigmergic run left marks")
	}
}

func TestAccuracyOnStaticWorld(t *testing.T) {
	w := smallWorld(t)
	a, err := core.New(core.Config{
		ID: 0, Kind: core.PolicyConscientious, NetworkSize: w.N(),
		Stream: rng.New(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := Accuracy(a, w); got != 0 {
		t.Fatalf("fresh agent accuracy = %v", got)
	}
	for u := 0; u < w.N(); u++ {
		a.Topo.LearnFirstHand(NodeID(u), w.Neighbors(NodeID(u)))
	}
	if got := Accuracy(a, w); got != 1 {
		t.Fatalf("full map accuracy = %v", got)
	}
}

func TestDegradedWorldAccuracyDrops(t *testing.T) {
	// On a decaying network, a snapshot taken at step 0 loses accuracy.
	w, err := netgen.Generate(netgen.Spec{
		N: 60, TargetEdges: 400, ArenaSide: 50, RangeSpread: 0.25,
		BatteryFraction: 0.5, DecayPerStep: 0.01, FloorFraction: 0.2,
	}, 777)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.New(core.Config{
		ID: 0, Kind: core.PolicyConscientious, NetworkSize: w.N(),
		Stream: rng.New(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < w.N(); u++ {
		a.Topo.LearnFirstHand(NodeID(u), w.Neighbors(NodeID(u)))
	}
	for i := 0; i < 50; i++ {
		w.Step()
	}
	if got := Accuracy(a, w); got >= 1 {
		t.Fatalf("accuracy should drop on decayed network, got %v", got)
	}
}

func TestSingleAgentSuperEqualsConscientious(t *testing.T) {
	// With one agent there is nobody to learn from: the paper notes the
	// super-conscientious agent must behave exactly like a conscientious
	// one. Same seed ⇒ identical runs.
	w := smallWorld(t)
	con, err := Run(w, Scenario{Agents: 1, Kind: core.PolicyConscientious}, 13)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Run(w, Scenario{Agents: 1, Kind: core.PolicySuperConscientious}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if con.FinishStep != sup.FinishStep {
		t.Fatalf("single-agent runs differ: %d vs %d", con.FinishStep, sup.FinishStep)
	}
}

func TestSuperLosesAtLargePopulation(t *testing.T) {
	// The paper's "surprising result" (Fig 5): at large populations
	// super-conscientious agents meet often, become identical, and start
	// choosing identical targets — conscientious agents win clearly.
	runs := 8
	con, err := RunMany(staticFactory(smallWorld(t)),
		Scenario{Agents: 16, Kind: core.PolicyConscientious, Cooperate: true}, runs, 200)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := RunMany(staticFactory(smallWorld(t)),
		Scenario{Agents: 16, Kind: core.PolicySuperConscientious, Cooperate: true}, runs, 200)
	if err != nil {
		t.Fatal(err)
	}
	if sup.Finish.Mean <= con.Finish.Mean {
		t.Fatalf("Fig 5 shape missing: super (%.1f) should lose to conscientious (%.1f) at pop 16",
			sup.Finish.Mean, con.Finish.Mean)
	}
}

func TestStigmergyRepairsSuperAtLargePopulation(t *testing.T) {
	// Fig 6: with footprints, meeting-merged super-conscientious agents
	// are pushed apart again and beat conscientious agents at every
	// population size, including large ones.
	runs := 8
	con, err := RunMany(staticFactory(smallWorld(t)),
		Scenario{Agents: 16, Kind: core.PolicyConscientious, Cooperate: true, Stigmergy: true}, runs, 300)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := RunMany(staticFactory(smallWorld(t)),
		Scenario{Agents: 16, Kind: core.PolicySuperConscientious, Cooperate: true, Stigmergy: true}, runs, 300)
	if err != nil {
		t.Fatal(err)
	}
	if sup.Finish.Mean >= con.Finish.Mean {
		t.Fatalf("Fig 6 shape missing: stigmergic super (%.1f) should beat stigmergic conscientious (%.1f)",
			sup.Finish.Mean, con.Finish.Mean)
	}
}

func TestEpsilonDispersesSuper(t *testing.T) {
	// Minar's own fix: adding randomness to super-conscientious decisions
	// breaks the identical-choice lockstep at large populations.
	runs := 8
	plain, err := RunMany(staticFactory(smallWorld(t)),
		Scenario{Agents: 16, Kind: core.PolicySuperConscientious, Cooperate: true}, runs, 400)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := RunMany(staticFactory(smallWorld(t)),
		Scenario{Agents: 16, Kind: core.PolicySuperConscientious, Cooperate: true, Epsilon: 0.2}, runs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if eps.Finish.Mean >= plain.Finish.Mean {
		t.Fatalf("epsilon fix (%.1f) should beat plain super (%.1f) at pop 16",
			eps.Finish.Mean, plain.Finish.Mean)
	}
}

func TestMixedTeam(t *testing.T) {
	w := smallWorld(t)
	res, err := Run(w, Scenario{
		Team: []TeamSpec{
			{Kind: core.PolicyConscientious, Count: 4},
			{Kind: core.PolicyRandom, Count: 2},
		},
		Cooperate: true,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("mixed team did not finish")
	}
	// Team overrides Agents/Kind.
	res2, err := Run(w, Scenario{
		Agents: 99, Kind: core.PolicyRandom,
		Team:      []TeamSpec{{Kind: core.PolicyConscientious, Count: 2}},
		Cooperate: true,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Finished {
		t.Fatal("team-override run did not finish")
	}
	// 2 conscientious agents move far less than 99 random ones would.
	if res2.Overhead.Moves > res2.FinishStep*2 {
		t.Fatalf("Team did not override Agents: %d moves in %d steps",
			res2.Overhead.Moves, res2.FinishStep)
	}
}

// TestTeamKinds pins how a Team becomes agents: agent i takes the kind of
// the slice holding index i, in slice order, skipping empty slices; a
// negative count or a team without agents is an error.
func TestTeamKinds(t *testing.T) {
	w := smallWorld(t)
	c, r, s := core.PolicyConscientious, core.PolicyRandom, core.PolicySuperConscientious
	sc := Scenario{Team: []TeamSpec{{c, 2}, {r, 0}, {s, 1}, {r, 2}}}.withDefaults()
	agents, err := placeAgents(w, sc, rng.New(1), new(runState))
	if err != nil {
		t.Fatal(err)
	}
	var got []core.PolicyKind
	for _, a := range agents {
		got = append(got, a.Kind())
	}
	if want := []core.PolicyKind{c, c, s, r, r}; !slices.Equal(got, want) {
		t.Fatalf("team kinds %v, want %v", got, want)
	}
	for _, team := range [][]TeamSpec{{{c, 2}, {r, -1}}, {{c, 0}}} {
		if _, err := Run(w, Scenario{Team: team}, 1); err == nil {
			t.Errorf("team %v accepted", team)
		}
	}
}

func TestMixedTeamDeterministic(t *testing.T) {
	w := smallWorld(t)
	sc := Scenario{
		Team: []TeamSpec{
			{Kind: core.PolicyConscientious, Count: 3},
			{Kind: core.PolicySuperConscientious, Count: 3},
		},
		Cooperate: true, Stigmergy: true,
	}
	a, err := Run(w, sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinishStep != b.FinishStep || a.Overhead != b.Overhead {
		t.Fatal("mixed-team runs not reproducible")
	}
}

func TestTracedRun(t *testing.T) {
	w := smallWorld(t)
	var buf trace.Buffer
	sc := Scenario{Agents: 4, Kind: core.PolicyConscientious, Cooperate: true, Tracer: &buf}
	res, err := Run(w, sc, 5)
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
	// Two measures per step: avg-knowledge and min-knowledge.
	if counts[trace.KindMeasure] != 2*len(res.Curve) {
		t.Fatalf("traced measures %d != 2x curve points %d", counts[trace.KindMeasure], len(res.Curve))
	}
	if counts[trace.KindFinish] != 1 {
		t.Fatalf("finish events = %d", counts[trace.KindFinish])
	}
	if counts[trace.KindMeet] == 0 {
		t.Fatal("no meetings traced for a cooperating team")
	}
	// Traces are reproducible with the sequential engine.
	var buf2 trace.Buffer
	sc.Tracer = &buf2
	if _, err := Run(w, sc, 5); err != nil {
		t.Fatal(err)
	}
	a, b := buf.Events(), buf2.Events()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFig5ShapeRobustAcrossWorlds guards the Fig 5 surprise against
// seed-overfitting: super-conscientious must lose at a large population
// on freshly drawn networks too.
func TestFig5ShapeRobustAcrossWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world robustness sweep is not short")
	}
	for _, worldSeed := range []uint64{1234, 77, 9001} {
		w, err := netgen.Generate(netgen.Spec{
			N: 80, TargetEdges: 560, ArenaSide: 60, RangeSpread: 0.25,
			RequireStrong: true,
		}, worldSeed)
		if err != nil {
			t.Fatal(err)
		}
		static := func(int) (*network.World, error) { return w, nil }
		con, err := RunMany(static, Scenario{Agents: 20, Kind: core.PolicyConscientious, Cooperate: true}, 4, worldSeed)
		if err != nil {
			t.Fatal(err)
		}
		sup, err := RunMany(static, Scenario{Agents: 20, Kind: core.PolicySuperConscientious, Cooperate: true}, 4, worldSeed)
		if err != nil {
			t.Fatal(err)
		}
		if sup.Finish.Mean <= con.Finish.Mean {
			t.Errorf("world %d: super (%.0f) did not lose to conscientious (%.0f) at pop 20",
				worldSeed, sup.Finish.Mean, con.Finish.Mean)
		}
	}
}
