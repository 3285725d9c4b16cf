// Command routing runs the dynamic-routing scenario with full parameter
// control — the knob-level companion to `figures`.
//
// Examples:
//
//	routing -agents 100 -policy oldest
//	routing -agents 100 -policy oldest -communicate          # Fig 11's pathology
//	routing -agents 100 -policy oldest -communicate -stigmergy
//	routing -agents 50 -history 8 -curve
//	routing -agents 100 -faults blackout             # churn + gateway failures + a partition
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/replay"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		nodes        = flag.Int("nodes", 250, "network size")
		edges        = flag.Int("edges", 2000, "target directed edge count")
		gateways     = flag.Int("gateways", 12, "gateway count")
		mobile       = flag.Float64("mobile", 0.5, "fraction of non-gateway nodes that move")
		minSpeed     = flag.Float64("minspeed", 0.1, "minimum node speed")
		maxSpeed     = flag.Float64("maxspeed", 0.5, "maximum node speed")
		agents       = flag.Int("agents", 100, "agent population")
		policy       = flag.String("policy", "oldest", "random | oldest")
		communicate  = flag.Bool("communicate", false, "exchange best route when agents meet")
		stigmergy    = flag.Bool("stigmergy", false, "leave and respect footprints")
		history      = flag.Int("history", 32, "agent history size (trail + visit memory)")
		steps        = flag.Int("steps", 300, "steps per run")
		runs         = flag.Int("runs", 40, "independent runs")
		seed         = flag.Uint64("seed", 1, "root seed (world trace and placements)")
		runWorkers   = flag.Int("runworkers", runtime.NumCPU(), "concurrent independent runs (aggregates are identical at any value)")
		faultPreset  = flag.String("faults", "", "fault preset to inject (churn|gwfail|partition|degrade|blackout)")
		strandedKill = flag.Bool("strandedkill", false, "remove stranded agents instead of respawning them")
		curve        = flag.Bool("curve", false, "print averaged connectivity curve as TSV")
		binlogFile   = flag.String("binlog", "", "write a binary event+world log of ONE run to this file (replayable with cmd/replay)")
		anchorEvery  = flag.Int("anchorevery", network.DefaultAnchorEvery, "snapshot anchor cadence in the binary log")
		metricsFile  = flag.String("metrics", "", "dump a metrics snapshot to this file (Prometheus text; .json for JSON)")
		httpAddr     = flag.String("http", "", "serve /metrics, expvar and pprof on this address (e.g. :6060) while running")
	)
	flag.Parse()

	kind, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routing:", err)
		os.Exit(2)
	}
	spec := netgen.Routing250()
	spec.N = *nodes
	spec.TargetEdges = *edges
	spec.Gateways = *gateways
	spec.MobileFraction = *mobile
	spec.MinSpeed = *minSpeed
	spec.MaxSpeed = *maxSpeed

	build := func() (*network.World, error) { return netgen.Generate(spec, *seed) }
	worldFor := func(int) (*network.World, error) { return build() }
	w, err := build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "routing:", err)
		os.Exit(1)
	}
	fmt.Println("network:", netgen.Describe(w))

	sc := routing.Scenario{
		Agents:      *agents,
		Kind:        kind,
		Communicate: *communicate,
		Stigmergy:   *stigmergy,
		HistorySize: *history,
		Steps:       *steps,
		RunWorkers:  *runWorkers,
	}
	if *faultPreset != "" {
		sched, err := faults.Preset(*faultPreset, w.N(), w.Gateways(), *steps, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "routing:", err)
			os.Exit(2)
		}
		sc.Faults = sched
		if *strandedKill {
			sc.StrandedPolicy = routing.StrandedKill
		}
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
			fmt.Fprintln(os.Stderr, "routing:", err)
			os.Exit(1)
		}
		fmt.Printf("serving metrics/expvar/pprof on http://%s\n", addr)
	}
	if *binlogFile != "" {
		meta := replay.RunMeta{
			Scenario:    "routing",
			Spec:        spec,
			WorldSeed:   *seed,
			Seed:        *seed,
			Steps:       *steps,
			FaultPreset: *faultPreset,
			AnchorEvery: *anchorEvery,
		}
		n, err := recordOneRun(*binlogFile, meta, worldFor, sc, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "routing:", err)
			os.Exit(1)
		}
		fmt.Printf("binary log of one run written to %s (%d events)\n", *binlogFile, n)
	}
	// Record the world trajectory once and replay it for every run —
	// bit-identical to stepping each run's world live.
	agg, err := routing.RunManyCached(build, sc, *runs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routing:", err)
		os.Exit(1)
	}

	fmt.Printf("agents=%d policy=%s communicate=%v stigmergy=%v history=%d runs=%d\n",
		*agents, kind, *communicate, *stigmergy, *history, *runs)
	fmt.Printf("connectivity (post-convergence): %s\n", agg.Mean)
	fmt.Printf("end-to-end connectivity: %s\n", agg.EndToEnd)
	fmt.Printf("within-run stability (std): %.4f\n", agg.Stability)
	fmt.Printf("overhead: moves=%d meetings=%d deposits=%d adoptions=%d marks=%d\n",
		agg.Overhead.Moves, agg.Overhead.Meetings, agg.Overhead.RouteDeposits,
		agg.Overhead.TrailAdoptions, agg.Overhead.MarksLeft)
	if *faultPreset != "" {
		fmt.Printf("route staleness (mean age, steps): %.2f\n", agg.MeanStaleness)
		fmt.Printf("reconvergence: local %.2f steps, end-to-end %.2f steps (%d/%d events recovered)\n",
			agg.Reconv.Mean, agg.ReconvE2E.Mean, agg.Recovered, agg.Recovered+agg.Censored)
		fmt.Printf("connectivity floor: local %.4f, end-to-end %.4f\n",
			agg.Floor.Mean, agg.FloorE2E.Mean)
		fmt.Printf("stranded agents: %d\n", agg.Stranded)
	}
	if *metricsFile != "" {
		if err := metrics.WriteFile(reg, *metricsFile); err != nil {
			fmt.Fprintln(os.Stderr, "routing:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsFile)
	}

	if *curve {
		fmt.Println("\nstep\tconnectivity\tphysical-upper-bound")
		stride := len(agg.AvgSeries) / 200
		if stride < 1 {
			stride = 1
		}
		conn := stats.Downsample(agg.AvgSeries, stride)
		ideal := stats.Downsample(agg.AvgIdeal, stride)
		for i := range conn {
			id := 0.0
			if i < len(ideal) {
				id = ideal[i]
			}
			fmt.Printf("%d\t%.4f\t%.4f\n", i*stride, conn[i], id)
		}
	}
}

// recordOneRun executes a single sequential run recorded into a binary
// log at path (snapshot anchors + world deltas + events), returning the
// event count.
func recordOneRun(path string, meta replay.RunMeta, worldFor func(int) (*network.World, error), sc routing.Scenario, seed uint64) (int, error) {
	hdr, err := replay.NewLogHeader(meta)
	if err != nil {
		return 0, err
	}
	lw, err := trace.CreateLog(path, hdr)
	if err != nil {
		return 0, err
	}
	w, err := worldFor(0)
	if err != nil {
		lw.Close()
		return 0, err
	}
	sc.Tracer = lw
	sc.AnchorEvery = meta.AnchorEvery
	if _, err := routing.Run(w, sc, seed); err != nil {
		lw.Close()
		return 0, err
	}
	return lw.Count(), lw.Close()
}

func parsePolicy(s string) (core.PolicyKind, error) {
	switch s {
	case "random":
		return core.PolicyRandom, nil
	case "oldest", "oldest-node":
		return core.PolicyOldestNode, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want random, oldest)", s)
	}
}
