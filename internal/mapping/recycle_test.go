package mapping

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/knowledge"
	"repro/internal/netgen"
	"repro/internal/network"
)

// mobileSpec is a small dynamic world: half the nodes move on draining
// batteries, so a mapping run on it steps a changing topology.
func mobileSpec() netgen.Spec {
	return netgen.Spec{
		N: 120, TargetEdges: 960, ArenaSide: 70, RangeSpread: 0.25,
		BatteryFraction: 1, DecayPerStep: 0.0005, FloorFraction: 0.6,
		Mobility: netgen.MobilityRandom, MobileFraction: 0.5,
		MinSpeed: 0.1, MaxSpeed: 0.5,
	}
}

// TestRecycledStateMatchesFresh pins that recycling a run's state — its
// agents (maps, visit tables, merge lineage), grouper and footprint board
// — cannot leak into the next run: one runState driven through a
// sequence of runs that shrink and regrow the team, change the world's
// size, bound the visit memory, turn stigmergy on and off and churn the
// nodes must give, run by run, exactly the Result of the same run on a
// fresh runState.
func TestRecycledStateMatchesFresh(t *testing.T) {
	const mobileSteps = 800
	mobile, err := netgen.Generate(mobileSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := faults.Preset("churn", mobile.N(), mobile.Gateways(), mobileSteps, 11)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		spec netgen.Spec
		seed uint64 // world seed
		sc   Scenario
	}{
		// Fig 5's expensive end: the pool grows to 40 full maps.
		{"super40", netgen.Mapping300(), 1, Scenario{
			Agents: 40, Kind: core.PolicySuperConscientious, Cooperate: true,
		}},
		// The pool shrinks: one agent reuses agent 0's full map and
		// visit table, and the board is allocated.
		{"single", netgen.Mapping300(), 2, Scenario{
			Agents: 1, Kind: core.PolicyConscientious, Stigmergy: true, MaxSteps: 3000,
		}},
		// A smaller world between two 300-node ones, with a mixed team
		// on a shrunk board.
		{"team-small-world", smallSpec(), 1234, Scenario{
			Team: []TeamSpec{
				{Kind: core.PolicyConscientious, Count: 3},
				{Kind: core.PolicyRandom, Count: 2},
				{Kind: core.PolicySuperConscientious, Count: 4},
			},
			Cooperate: true, Stigmergy: true,
		}},
		// Bounded visit memory with Minar's randomness fix.
		{"bounded-epsilon", netgen.Mapping300(), 1, Scenario{
			Agents: 12, Kind: core.PolicySuperConscientious, Cooperate: true,
			VisitCapacity: 8, Epsilon: 0.1,
		}},
		// The board grows back to 300 nodes and must hold no old mark.
		{"stigmergy", netgen.Mapping300(), 3, Scenario{
			Agents: 6, Kind: core.PolicyConscientious, Cooperate: true, Stigmergy: true,
		}},
		// A churn-faulted dynamic world respawns stranded agents.
		{"churn", mobileSpec(), 5, Scenario{
			Agents: 4, Kind: core.PolicyRandom, Cooperate: true,
			MaxSteps: mobileSteps, Faults: churn,
		}},
	}
	recycled := new(runState)
	for i, s := range steps {
		for _, seed := range []uint64{uint64(i) + 1, uint64(i) + 100} {
			var res [2]Result
			for side, st := range []*runState{recycled, new(runState)} {
				w, err := netgen.Generate(s.spec, s.seed)
				if err != nil {
					t.Fatal(err)
				}
				if res[side], err = run(w, s.sc, seed, st); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("%s seed %d: recycled state finished at %d, a fresh one at %d (results differ)",
					s.name, seed, res[0].FinishStep, res[1].FinishStep)
			}
			if s.sc.Faults != nil && res[0].Stranded == 0 {
				t.Fatalf("%s seed %d: churn stranded no agent; the faulted step is vacuous", s.name, seed)
			}
		}
	}
}

// TestRunReusesPooledAgents pins what recycling saves. A warm state drawn
// from the free list must carry its agents into the next run: the same agents
// with the same topology, visit and trail objects and the same knowledge
// bitmask storage. And a run on warm state allocates only the run's four
// root streams, its two result curves and one RNG stream per agent, on a
// 60-node world and a 300-node one alike: nothing scales with n, so the
// maps, visit tables and footprint board are all reused. The count holds
// under the race detector too: meetings run on the state's own scratch.
func TestRunReusesPooledAgents(t *testing.T) {
	const perRun = 6 // root, "mapping", "placement" and "agent" streams; Curve and MinCurve
	small, err := netgen.Generate(smallSpec(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	big, err := netgen.Generate(netgen.Mapping300(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		// Fig 5's shape. MaxSteps keeps the curves within their initial
		// capacity.
		{"super40", Scenario{Agents: 40, Kind: core.PolicySuperConscientious, Cooperate: true, MaxSteps: 1000}},
		{"stigmergy", Scenario{Agents: 8, Kind: core.PolicyConscientious, Stigmergy: true, MaxSteps: 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			if _, err := Run(big, sc, 7); err != nil {
				t.Fatal(err)
			}
			st := states.Get()
			if len(st.agents) < sc.Agents {
				t.Fatalf("the idle state holds %d agents after a run with %d", len(st.agents), sc.Agents)
			}
			defer states.Put(st)
			type storage struct {
				agent  *core.Agent
				topo   *knowledge.Topology
				visits *knowledge.Visits
				trail  *knowledge.Trail
				mask   *uint64
			}
			before := make([]storage, sc.Agents)
			for i, a := range st.agents[:sc.Agents] {
				before[i] = storage{a, a.Topo, a.Visits, a.Trail, &a.Topo.KnownMask()[0]}
			}
			if _, err := run(big, sc, 8, st); err != nil {
				t.Fatal(err)
			}
			for i, a := range st.agents[:sc.Agents] {
				if got := (storage{a, a.Topo, a.Visits, a.Trail, &a.Topo.KnownMask()[0]}); got != before[i] {
					t.Fatalf("agent %d was rebuilt instead of reset in place", i)
				}
			}
			// AllocsPerRun's warm-up run sizes st for w.
			for _, w := range []*network.World{small, big} {
				if got := testing.AllocsPerRun(3, func() {
					if _, err := run(w, sc, 9, st); err != nil {
						t.Fatal(err)
					}
				}); got != float64(perRun+sc.Agents) {
					t.Errorf("a run on %d nodes with warm state allocates %.0f times, want %d + %d agent streams",
						w.N(), got, perRun, sc.Agents)
				}
			}
		})
	}
}

// TestRunStateSurvivesCollection pins the free list's point: a garbage
// collection does not empty it, so a Fig 5-shaped run after one allocates
// no more than a warm run does, instead of regrowing 40 agents' maps,
// visit tables and trails. It collects twice, as a sync.Pool would keep
// one collection's worth in its victim cache.
func TestRunStateSurvivesCollection(t *testing.T) {
	w, err := netgen.Generate(netgen.Mapping300(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Agents: 40, Kind: core.PolicySuperConscientious, Cooperate: true, MaxSteps: 1000}
	run := func() {
		if _, err := Run(w, sc, 7); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	warm := testing.AllocsPerRun(5, run)
	collect := func() {
		runtime.GC()
		runtime.GC()
	}
	// The collections' own allocations (the runtime's cleanups) are not
	// the run's.
	gc := testing.AllocsPerRun(5, collect)
	collected := testing.AllocsPerRun(5, func() {
		collect()
		run()
	})
	if collected > warm+gc {
		t.Errorf("a run after a collection allocates %.1f times, a warm run %.1f (the collections %.1f)", collected, warm, gc)
	}
}
