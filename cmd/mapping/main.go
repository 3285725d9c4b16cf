// Command mapping runs the network-mapping scenario with full parameter
// control — the knob-level companion to `figures`, which reproduces the
// paper's exact settings.
//
// Examples:
//
//	mapping -agents 15 -policy conscientious -cooperate -stigmergy
//	mapping -agents 1  -policy random -runs 10 -curve
//	mapping -nodes 100 -edges 700 -agents 8 -policy super -epsilon 0.1
//	mapping -agents 15 -faults churn                 # map while nodes die and revive
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 300, "network size")
		edges       = flag.Int("edges", 2164, "target directed edge count")
		arena       = flag.Float64("arena", 100, "arena side length")
		spread      = flag.Float64("spread", 0.25, "radio range spread (0 = homogeneous)")
		agents      = flag.Int("agents", 15, "agent population")
		policy      = flag.String("policy", "conscientious", "random | conscientious | super")
		cooperate   = flag.Bool("cooperate", true, "exchange topology knowledge when agents meet")
		stigmergy   = flag.Bool("stigmergy", false, "leave and respect footprints")
		epsilon     = flag.Float64("epsilon", 0, "probability of a random move (Minar's fix)")
		memory      = flag.Int("memory", 0, "visit-memory bound (0 = unbounded)")
		runs        = flag.Int("runs", 40, "independent runs")
		seed        = flag.Uint64("seed", 1, "root seed (network and placements)")
		maxSteps    = flag.Int("maxsteps", 200000, "per-run step budget")
		faultPreset = flag.String("faults", "", "fault preset to inject (churn|gwfail|partition|degrade|blackout)")
		runWorkers  = flag.Int("runworkers", runtime.NumCPU(), "concurrent independent runs (aggregates are identical at any value)")
		curve       = flag.Bool("curve", false, "print the averaged knowledge curve as TSV")
		binlogFile  = flag.String("binlog", "", "write a binary event+world log of ONE run to this file (replayable with cmd/replay)")
		anchorEvery = flag.Int("anchorevery", network.DefaultAnchorEvery, "snapshot anchor cadence in the binary log")
		metricsFile = flag.String("metrics", "", "dump a metrics snapshot to this file (Prometheus text; .json for JSON)")
		httpAddr    = flag.String("http", "", "serve /metrics, expvar and pprof on this address (e.g. :6060) while running")
	)
	flag.Parse()

	kind, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapping:", err)
		os.Exit(2)
	}
	spec := netgen.Spec{
		N: *nodes, TargetEdges: *edges, ArenaSide: *arena,
		RangeSpread: *spread, RequireStrong: true,
	}
	w, err := netgen.Generate(spec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapping:", err)
		os.Exit(1)
	}
	fmt.Println("network:", netgen.Describe(w))

	sc := mapping.Scenario{
		Agents:        *agents,
		Kind:          kind,
		Cooperate:     *cooperate,
		Stigmergy:     *stigmergy,
		Epsilon:       *epsilon,
		VisitCapacity: *memory,
		MaxSteps:      *maxSteps,
		RunWorkers:    *runWorkers,
	}
	// Cap the fault-preset horizon well below the step budget: mapping runs
	// finish in hundreds of steps, so a schedule spread over the whole
	// budget would fire almost every event after the map is complete.
	horizon := min(*maxSteps, 2000)
	if *faultPreset != "" {
		sched, err := faults.Preset(*faultPreset, w.N(), w.Gateways(), horizon, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapping:", err)
			os.Exit(2)
		}
		sc.Faults = sched
		fmt.Printf("faults: preset=%s events=%d\n", *faultPreset, sched.Len())
	}
	var reg *metrics.Registry
	if *metricsFile != "" || *httpAddr != "" {
		reg = metrics.NewRegistry()
		sc.Metrics = reg
	}
	if *httpAddr != "" {
		addr, err := metrics.StartServer(*httpAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapping:", err)
			os.Exit(1)
		}
		fmt.Printf("serving metrics/expvar/pprof on http://%s\n", addr)
	}
	if *binlogFile != "" {
		meta := replay.RunMeta{
			Scenario:    "mapping",
			Spec:        spec,
			WorldSeed:   *seed,
			Seed:        *seed,
			Steps:       horizon,
			FaultPreset: *faultPreset,
			AnchorEvery: *anchorEvery,
		}
		n, err := recordOneRun(*binlogFile, meta, w, sc, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapping:", err)
			os.Exit(1)
		}
		fmt.Printf("binary log of one run written to %s (%d events)\n", *binlogFile, n)
	}
	// Record the world trajectory once and replay it for every run —
	// bit-identical to stepping each run's world live, and every run gets
	// its own world, so replication parallelises safely and fault
	// schedules (which fire at absolute world steps) stay aligned.
	build := func() (*network.World, error) { return netgen.Generate(spec, *seed) }
	agg, err := mapping.RunManyCached(build, sc, *runs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapping:", err)
		os.Exit(1)
	}

	fmt.Printf("agents=%d policy=%s cooperate=%v stigmergy=%v epsilon=%v runs=%d\n",
		*agents, kind, *cooperate, *stigmergy, *epsilon, *runs)
	fmt.Printf("finishing time: %s\n", agg.Finish)
	fmt.Printf("completed runs: %d/%d\n", agg.Completed, agg.Runs)
	fmt.Printf("overhead: moves=%d meetings=%d topo-records=%d marks=%d\n",
		agg.Overhead.Moves, agg.Overhead.Meetings,
		agg.Overhead.TopoRecordsReceived, agg.Overhead.MarksLeft)
	if *faultPreset != "" {
		fmt.Printf("stranded agents respawned: %d\n", agg.Stranded)
	}
	if *metricsFile != "" {
		if err := metrics.WriteFile(reg, *metricsFile); err != nil {
			fmt.Fprintln(os.Stderr, "mapping:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsFile)
	}

	if *curve {
		fmt.Println("\nstep\tavg-knowledge\tslowest-agent")
		avg := stats.Downsample(agg.AvgCurve, downsampleStride(len(agg.AvgCurve)))
		min := stats.Downsample(agg.AvgMinCurve, downsampleStride(len(agg.AvgMinCurve)))
		stride := downsampleStride(len(agg.AvgCurve))
		for i := range avg {
			m := 0.0
			if i < len(min) {
				m = min[i]
			}
			fmt.Printf("%d\t%.4f\t%.4f\n", i*stride, avg[i], m)
		}
	}
}

// downsampleStride keeps curve printouts under ~200 lines.
func downsampleStride(n int) int {
	stride := n / 200
	if stride < 1 {
		stride = 1
	}
	return stride
}

// recordOneRun executes a single sequential run recorded into a binary
// log at path (snapshot anchors + world deltas + events), returning the
// event count.
func recordOneRun(path string, meta replay.RunMeta, w *network.World, sc mapping.Scenario, seed uint64) (int, error) {
	hdr, err := replay.NewLogHeader(meta)
	if err != nil {
		return 0, err
	}
	lw, err := trace.CreateLog(path, hdr)
	if err != nil {
		return 0, err
	}
	sc.Tracer = lw
	sc.AnchorEvery = meta.AnchorEvery
	if _, err := mapping.Run(w, sc, seed); err != nil {
		lw.Close()
		return 0, err
	}
	return lw.Count(), lw.Close()
}

func parsePolicy(s string) (core.PolicyKind, error) {
	switch s {
	case "random":
		return core.PolicyRandom, nil
	case "conscientious":
		return core.PolicyConscientious, nil
	case "super", "super-conscientious":
		return core.PolicySuperConscientious, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want random, conscientious, super)", s)
	}
}
