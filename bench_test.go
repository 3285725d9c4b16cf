// Benchmarks: one per paper figure/extension, each iterating a single
// representative run of that experiment's workload at paper scale. They
// measure the cost of regenerating the result, not the statistics — the
// `figures` command does the 40-run aggregation.
package agentmesh_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	agentmesh "repro"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/parallel"
	"repro/internal/radio"
	"repro/internal/rng"
)

// mapWorld returns the shared canonical mapping network.
func mapWorld(b *testing.B) *agentmesh.World {
	b.Helper()
	w, err := agentmesh.MappingNetwork(1)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// benchMapping runs one mapping run per iteration.
func benchMapping(b *testing.B, sc agentmesh.MappingScenario) {
	w := mapWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := agentmesh.RunMapping(w, sc, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Finished {
			b.Fatal("run did not finish")
		}
	}
}

// benchRouting runs one 300-step routing run per iteration on a fresh
// world (the world trace is identical every time, as in the paper).
func benchRouting(b *testing.B, sc agentmesh.RoutingScenario) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := agentmesh.RoutingNetwork(1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := agentmesh.RunRouting(w, sc, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1SingleAgentMinar(b *testing.B) {
	benchMapping(b, agentmesh.MappingScenario{Agents: 1, Kind: agentmesh.PolicyConscientious})
}

func BenchmarkFig2SingleAgentStigmergy(b *testing.B) {
	benchMapping(b, agentmesh.MappingScenario{Agents: 1, Kind: agentmesh.PolicyConscientious, Stigmergy: true})
}

func BenchmarkFig3Cooperation(b *testing.B) {
	benchMapping(b, agentmesh.MappingScenario{Agents: 15, Kind: agentmesh.PolicyConscientious, Cooperate: true})
}

func BenchmarkFig4CooperationStigmergy(b *testing.B) {
	benchMapping(b, agentmesh.MappingScenario{
		Agents: 15, Kind: agentmesh.PolicyConscientious, Cooperate: true, Stigmergy: true,
	})
}

func BenchmarkFig5SuperVsConscientious(b *testing.B) {
	// The expensive end of the Fig 5 sweep: 40 super-conscientious agents
	// whose meetings merge knowledge every step.
	benchMapping(b, agentmesh.MappingScenario{
		Agents: 40, Kind: agentmesh.PolicySuperConscientious, Cooperate: true,
	})
}

func BenchmarkFig6SuperStigmergy(b *testing.B) {
	benchMapping(b, agentmesh.MappingScenario{
		Agents: 40, Kind: agentmesh.PolicySuperConscientious, Cooperate: true, Stigmergy: true,
	})
}

func BenchmarkFig7OldestNodeConnectivity(b *testing.B) {
	benchRouting(b, agentmesh.RoutingScenario{Agents: 100, Kind: agentmesh.PolicyOldestNode})
}

func BenchmarkFig8PopulationSweep(b *testing.B) {
	// The expensive end of the Fig 8 sweep.
	benchRouting(b, agentmesh.RoutingScenario{Agents: 200, Kind: agentmesh.PolicyOldestNode})
}

func BenchmarkFig9HistorySweep(b *testing.B) {
	benchRouting(b, agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyOldestNode, HistorySize: 64,
	})
}

func BenchmarkFig10RandomComm(b *testing.B) {
	benchRouting(b, agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyRandom, Communicate: true,
	})
}

func BenchmarkFig11OldestComm(b *testing.B) {
	benchRouting(b, agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true,
	})
}

// Instrumented twins of the heaviest figure benchmarks: same workloads
// with a live metrics registry attached. A registry keeps every run
// inline (its phase timers split one goroutine's wall time), while the
// plain benchmarks step and measure on a helper when a processor is
// free, so on a multi-core host the gap is the instrumentation plus the
// lost overlap; scripts/bench.sh records both in results/bench_parallel.txt.

func BenchmarkFig8PopulationSweepInstrumented(b *testing.B) {
	benchRouting(b, agentmesh.RoutingScenario{
		Agents: 200, Kind: agentmesh.PolicyOldestNode,
		Metrics: agentmesh.NewMetricsRegistry(),
	})
}

func BenchmarkFig11OldestCommInstrumented(b *testing.B) {
	benchRouting(b, agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true,
		Metrics: agentmesh.NewMetricsRegistry(),
	})
}

func BenchmarkExtStigmergicRouting(b *testing.B) {
	benchRouting(b, agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true, Stigmergy: true,
	})
}

func BenchmarkExtEpsilonSuper(b *testing.B) {
	benchMapping(b, agentmesh.MappingScenario{
		Agents: 40, Kind: agentmesh.PolicySuperConscientious, Cooperate: true, Epsilon: 0.2,
	})
}

func BenchmarkExtBaselines(b *testing.B) {
	// Regenerating the overhead comparison is dominated by the network
	// generation plus one flooding pass; measure via the Figure API.
	if testing.Short() {
		b.Skip("extC regenerates multiple settings per iteration")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := agentmesh.Figure("extC", agentmesh.ExperimentConfig{Runs: 1, Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtDelivery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := agentmesh.RoutingNetwork(1)
		if err != nil {
			b.Fatal(err)
		}
		gen := agentmesh.NewTrafficGen(5, 64, 100, uint64(i))
		sc := agentmesh.RoutingScenario{
			Agents: 100, Kind: agentmesh.PolicyOldestNode, Observer: gen.Step,
		}
		if _, err := agentmesh.RunRouting(w, sc, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkGenerationMapping300(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := agentmesh.MappingNetwork(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkGenerationRouting250(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := agentmesh.RoutingNetwork(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Replication-batch benchmarks: one whole RunMany batch (8 runs) per
// iteration, sequential versus parallel across the machine's cores. The
// sequential variant spends the executor budget (SetBudget(0)), so it runs
// on one goroutine: one run after another, each stepping its world
// inline. The parallel variant grants the budget NumCPU-1 extra workers
// explicitly, so the measurement reflects the hardware it runs on — on a
// single-core host it degrades to the sequential path by design, and the
// recorded speedup is honestly ~1x. The routing batch adds a
// sequential+helper variant: runs one after another, each with a budget
// token for the helper goroutine that steps its live world ahead of it
// (network.Lookahead).

func benchBatch(b *testing.B, variant string, batch func() error) {
	budget := runtime.NumCPU() - 1
	if variant == "sequential" {
		budget = 0
	}
	old := parallel.Budget()
	parallel.SetBudget(budget)
	defer parallel.SetBudget(old)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := batch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMappingBatch(b *testing.B) {
	worldFor := func(int) (*agentmesh.World, error) { return agentmesh.MappingNetwork(1) }
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", runtime.NumCPU()}} {
		b.Run(bc.name, func(b *testing.B) {
			sc := agentmesh.MappingScenario{
				Agents: 15, Kind: agentmesh.PolicyConscientious, Cooperate: true,
				RunWorkers: bc.workers,
			}
			benchBatch(b, bc.name, func() error {
				_, err := agentmesh.RunMappingBatch(worldFor, sc, 8, 7)
				return err
			})
		})
	}
}

func BenchmarkRoutingBatch(b *testing.B) {
	worldFor := func(int) (*agentmesh.World, error) { return agentmesh.RoutingNetwork(1) }
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"sequential+helper", 1}, {"parallel", runtime.NumCPU()}} {
		b.Run(bc.name, func(b *testing.B) {
			sc := agentmesh.RoutingScenario{
				Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true,
				Steps: 120, RunWorkers: bc.workers,
			}
			benchBatch(b, bc.name, func() error {
				_, err := agentmesh.RunRoutingBatch(worldFor, sc, 8, 7)
				return err
			})
		})
	}
}

// BenchmarkParallelVsSequentialMapping runs a batch of 40-agent
// cooperative mapping runs with RunWorkers 1 versus one per CPU.
func BenchmarkParallelVsSequentialMapping(b *testing.B) {
	worldFor := func(int) (*agentmesh.World, error) { return agentmesh.MappingNetwork(1) }
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", runtime.NumCPU()}} {
		b.Run(bc.name, func(b *testing.B) {
			sc := agentmesh.MappingScenario{
				Agents: 40, Kind: agentmesh.PolicyConscientious,
				Cooperate: true, RunWorkers: bc.workers,
			}
			benchBatch(b, bc.name, func() error {
				_, err := agentmesh.RunMappingBatch(worldFor, sc, 4, 1)
				return err
			})
		})
	}
}

// benchStepWorld builds a raw dynamic world at the paper's MANET density
// (scaled from the 250-node routing arena): half the nodes roam under the
// random-waypoint model — local hops with pause times, so at any step a
// fraction of the fleet is mid-leg and the rest is dwelling — half are
// stationary, and half of the stationary nodes carry decaying batteries.
// That mix exercises every part of the incremental topology engine: hot
// movers' list walks, certificates of slow and dwelling movers, list
// rebuilds, and the static decay cursors.
func benchStepWorld(b *testing.B, n int) *network.World {
	b.Helper()
	return benchStepWorldWith(b, n, false)
}

// benchStepWorldWith is benchStepWorld, optionally with node 0 replaced by
// an arena-wide waypoint mover at 10x the fleet's speed that never dwells:
// the one fast node that forced a global Verlet list to rebuild every step.
func benchStepWorldWith(b *testing.B, n int, fastNode bool) *network.World {
	b.Helper()
	s := rng.New(uint64(n))
	side := 150 * math.Sqrt(float64(n)/250) // constant node density as n grows
	arena := geom.Square(side)
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := range pos {
		pos[i] = geom.Point{X: s.Range(0, side), Y: s.Range(0, side)}
		if i%4 == 1 {
			radios[i] = radio.NewBattery(s.Range(10, 20), 0.0005, 0.6)
		} else {
			radios[i] = radio.New(s.Range(10, 20))
		}
		if i%2 == 0 {
			pause := 40 + int(s.Intn(81)) // dwell 40-120 steps between hops
			movers[i] = mobility.NewLocalWaypoint(arena, 30, 0.5, 3, pause, s.Child(uint64(i)))
			if fastNode && i == 0 {
				movers[i] = mobility.NewWaypoint(arena, 5, 30, 0, s.Child(uint64(i)))
			}
		} else {
			movers[i] = mobility.Static{}
		}
	}
	w, err := network.NewWorld(network.Config{
		Arena: arena, Positions: pos, Radios: radios, Movers: movers,
		Gateways: []network.NodeID{0, 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkWorldStep measures raw per-step topology maintenance at
// growing network sizes with mover fraction 0.5. mode=rebuild forces the
// pre-incremental full per-step recompute; mode=incremental is the
// churn-proportional engine (the default for dynamic worlds); mode=replay
// applies a pre-recorded trajectory — no mobility RNG, no disc scans, no
// grid — the engine the sweep harness amortises across replications. All
// modes produce bit-identical topologies (pinned by the equivalence and
// fuzz tests in internal/network), so the ratios are pure maintenance
// cost. The routing250 tier steps the paper's own Fig 8 world instead
// (RoutingNetwork: an always-moving random-velocity half on decaying
// batteries); the n=500/fastnode tier is the n=500 world with one node at
// 10x the fleet's speed.
func BenchmarkWorldStep(b *testing.B) {
	benchWorldStep := func(b *testing.B, n int, fastNode, rebuild bool) {
		w := benchStepWorldWith(b, n, fastNode)
		w.SetFullRebuild(rebuild)
		// Warm scratch storage and let the waypoint fleet settle into
		// its steady-state moving/dwelling mix before timing.
		for i := 0; i < 150; i++ {
			w.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Step()
		}
	}
	// benchWorldStepReplay records `record` steps of the same warmed world
	// once (untimed), then times pure delta application on replay worlds,
	// re-arming a fresh one with the timer stopped whenever the recording
	// is exhausted.
	benchWorldStepReplay := func(b *testing.B, n, record int) {
		w := benchStepWorld(b, n)
		for i := 0; i < 150; i++ {
			w.Step()
		}
		traj, err := network.RecordTrajectory(w, record)
		if err != nil {
			b.Fatal(err)
		}
		rw, err := traj.World()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rw.TrajectoryRemaining() == 0 {
				b.StopTimer()
				if rw, err = traj.World(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			rw.Step()
		}
	}
	// benchWorldStepRouting250 steps each generated Fig 8 world for one
	// run's length (300 steps), then re-arms the next seed's world with the
	// timer stopped, so the timed steps follow Fig 8's battery drain.
	benchWorldStepRouting250 := func(b *testing.B, rebuild bool) {
		const runSteps = 300
		var w *network.World
		seed, left := uint64(0), 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if left == 0 {
				b.StopTimer()
				seed++
				var err error
				if w, err = agentmesh.RoutingNetwork(seed); err != nil {
					b.Fatal(err)
				}
				w.SetFullRebuild(rebuild)
				left = runSteps
				b.StartTimer()
			}
			w.Step()
			left--
		}
	}
	for _, n := range []int{500, 2000, 8000} {
		for _, mode := range []string{"rebuild", "incremental"} {
			b.Run(fmt.Sprintf("n=%d/mode=%s", n, mode), func(b *testing.B) {
				benchWorldStep(b, n, false, mode == "rebuild")
			})
		}
	}
	for _, mode := range []string{"rebuild", "incremental"} {
		b.Run("n=500/fastnode/mode="+mode, func(b *testing.B) {
			benchWorldStep(b, 500, true, mode == "rebuild")
		})
	}
	for _, mode := range []string{"rebuild", "incremental"} {
		b.Run("routing250/mode="+mode, func(b *testing.B) {
			benchWorldStepRouting250(b, mode == "rebuild")
		})
	}
	for _, n := range []int{500, 8000} {
		b.Run(fmt.Sprintf("n=%d/mode=replay", n), func(b *testing.B) {
			benchWorldStepReplay(b, n, 600)
		})
	}
	const big = 100000
	for _, mode := range []string{"rebuild", "incremental"} {
		b.Run(fmt.Sprintf("n=%d/mode=%s", big, mode), func(b *testing.B) {
			benchWorldStep(b, big, false, mode == "rebuild")
		})
	}
	// 256 recorded steps keeps the n=100000 recording's memory bounded
	// while still amortising the untimed re-arm across the timed loop.
	b.Run(fmt.Sprintf("n=%d/mode=replay", big), func(b *testing.B) {
		benchWorldStepReplay(b, big, 256)
	})
}
