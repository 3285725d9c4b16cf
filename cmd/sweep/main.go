// Command sweep runs one scenario across a swept parameter and emits CSV,
// the workhorse for custom parameter studies beyond the paper's figures.
//
// Examples:
//
//	sweep -scenario routing -param agents  -values 10,25,50,100,200
//	sweep -scenario routing -param history -values 4,8,16,32 -communicate
//	sweep -scenario mapping -param agents  -values 1,2,5,10,20 -stigmergy
//	sweep -scenario mapping -param epsilon -values 0,0.1,0.2 -policy super
//	sweep -scenario routing -param agents -values 10,50,100 -pointworkers 4 -runworkers 2
//	sweep -scenario routing -param agents -values 50,100 -faults churn
//	sweep -scenario routing -param agents -values 50,100 -faults partition -communicate
//	sweep -scenario mapping -param agents -values 5,15 -faults churn
//	sweep -scenario routing -param agents -values 50,100 -worldcache=0   # force live stepping
//
// By default the swept world's evolution is recorded once (positions,
// link churn, fault transitions) and replayed for every point and run —
// bit-identical CSV at a fraction of the world-step cost. -worldcache=0
// re-steps the world live for every run instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/parallel"
	"repro/internal/routing"
)

func main() {
	var (
		scenario     = flag.String("scenario", "routing", "mapping | routing")
		param        = flag.String("param", "agents", "mapping: agents|epsilon|memory; routing: agents|history")
		values       = flag.String("values", "", "comma-separated sweep values (required)")
		policy       = flag.String("policy", "", "agent policy (default: conscientious / oldest)")
		cooperate    = flag.Bool("cooperate", true, "mapping: exchange maps in meetings")
		communicate  = flag.Bool("communicate", false, "routing: exchange best route in meetings")
		stigmergy    = flag.Bool("stigmergy", false, "use footprints")
		runs         = flag.Int("runs", 10, "independent runs per value")
		seed         = flag.Uint64("seed", 1, "root seed")
		runWorkers   = flag.Int("runworkers", runtime.NumCPU(), "concurrent independent runs per point (aggregates are identical at any value)")
		pointWorkers = flag.Int("pointworkers", 1, "concurrent sweep points (rows still emitted in sweep order)")
		worldCache   = flag.Bool("worldcache", true, "record the world trajectory once and replay it for every point and run (results are bit-identical)")
		faultPreset  = flag.String("faults", "", "fault preset to inject (churn|gwfail|partition|degrade|blackout)")
		strandedKill = flag.Bool("strandedkill", false, "routing: remove stranded agents instead of respawning them")
		metricsFile  = flag.String("metrics", "", "dump the whole-sweep metrics snapshot to this file (Prometheus text; .json for JSON)")
		httpAddr     = flag.String("http", "", "serve /metrics, expvar and pprof on this address (e.g. :6060) while sweeping")
	)
	flag.Parse()
	if *values == "" {
		fmt.Fprintln(os.Stderr, "sweep: -values is required")
		os.Exit(2)
	}
	vals, err := parseValues(*values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	// Every point runs against a private registry (so per-point counter
	// columns stay race-free under -pointworkers), and completed points
	// are merged into this sweep-wide registry in sweep order — the view
	// the -http endpoints and the -metrics dump serve.
	reg := metrics.NewRegistry()
	if *httpAddr != "" {
		addr, err := metrics.StartServer(*httpAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving metrics/expvar/pprof on http://%s\n", addr)
	}
	cfg := sweepConfig{
		runs: *runs, seed: *seed,
		runWorkers:   *runWorkers,
		pointWorkers: *pointWorkers, worldCache: *worldCache,
		faultPreset: *faultPreset, strandedKill: *strandedKill,
		reg: reg,
	}
	switch *scenario {
	case "mapping":
		err = sweepMapping(*param, vals, *policy, *cooperate, *stigmergy, cfg)
	case "routing":
		err = sweepRouting(*param, vals, *policy, *communicate, *stigmergy, cfg)
	default:
		err = fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if *metricsFile != "" {
		if err := metrics.WriteFile(reg, *metricsFile); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
	}
}

// sweepConfig carries the execution knobs shared by both sweeps.
type sweepConfig struct {
	runs         int
	seed         uint64
	runWorkers   int
	pointWorkers int
	worldCache   bool
	faultPreset  string
	strandedKill bool
	reg          *metrics.Registry
}

// emitter streams completed point rows in sweep order: a point parks its
// row and private registry in its slot, and whoever holds the lock
// flushes the done prefix — printing rows and merging registries without
// ever reordering or racing them.
type emitter struct {
	mu   sync.Mutex
	rows []string
	regs []*metrics.Registry
	done []bool
	next int
	dst  *metrics.Registry
}

func newEmitter(n int, dst *metrics.Registry) *emitter {
	return &emitter{
		rows: make([]string, n),
		regs: make([]*metrics.Registry, n),
		done: make([]bool, n),
		dst:  dst,
	}
}

func (e *emitter) emit(i int, row string, reg *metrics.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rows[i], e.regs[i], e.done[i] = row, reg, true
	for e.next < len(e.done) && e.done[e.next] {
		fmt.Print(e.rows[e.next])
		e.dst.Merge(e.regs[e.next])
		e.rows[e.next], e.regs[e.next] = "", nil
		e.next++
	}
}

// counterValues reads the named counters out of one point's private
// registry snapshot. The registry is born at the point, so totals ARE the
// per-point deltas.
func counterValues(s *metrics.Snapshot, names ...string) []uint64 {
	out := make([]uint64, len(names))
	for i, name := range names {
		out[i] = s.Counter(name)
	}
	return out
}

func parseValues(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func sweepMapping(param string, vals []float64, policy string, cooperate, stigmergy bool, cfg sweepConfig) error {
	kind := core.PolicyConscientious
	switch policy {
	case "", "conscientious":
	case "random":
		kind = core.PolicyRandom
	case "super", "super-conscientious":
		kind = core.PolicySuperConscientious
	default:
		return fmt.Errorf("unknown mapping policy %q", policy)
	}
	const maxSteps = 200000
	pool := parallel.NewPool(cfg.pointWorkers)
	build := func() (*network.World, error) {
		return netgen.Generate(netgen.Mapping300(), cfg.seed)
	}
	w, err := build()
	if err != nil {
		return err
	}
	// One immutable schedule drives every point and run. The preset horizon
	// is capped well below the step budget: mapping runs finish in hundreds
	// of steps, so a schedule spread over all 200k would fire almost every
	// event after the map is already complete.
	var sched *faults.Schedule
	if cfg.faultPreset != "" {
		horizon := maxSteps
		if horizon > 2000 {
			horizon = 2000
		}
		sched, err = faults.Preset(cfg.faultPreset, w.N(), w.Gateways(), horizon, cfg.seed)
		if err != nil {
			return err
		}
	}
	// The mapping network is static, but concurrent points or runs — and
	// any faulted run, whose schedule fires at absolute world steps — each
	// need their own world.
	var worldFor func(int) (*network.World, error)
	switch {
	case cfg.worldCache && cfg.runs*len(vals) > 1:
		// Record the world's trajectory once; every point and run replays
		// it bit-identically in O(changes) per step.
		src := network.NewTrajectorySource(maxSteps, 0, sched, build)
		worldFor = src.WorldFor
	case pool.Parallel() || cfg.runWorkers > 1 || sched != nil:
		// Clone the generated world through the snapshot machinery — a
		// bit-identical topology without re-running netgen's placement and
		// range search per run.
		snap := w.Snapshot()
		worldFor = func(int) (*network.World, error) { return snap.World() }
	default:
		worldFor = func(int) (*network.World, error) { return w, nil }
	}
	fmt.Printf("%s,finish_mean,finish_ci95,finish_min,finish_max,completed,runs,moves,meetings,topo_records,stranded,faults_injected,faults_recovered\n", param)
	em := newEmitter(len(vals), cfg.reg)
	return pool.Run(len(vals), func(i int) error {
		v := vals[i]
		preg := metrics.NewRegistry()
		sc := mapping.Scenario{
			Agents: 15, Kind: kind, Cooperate: cooperate, Stigmergy: stigmergy,
			MaxSteps: maxSteps, Faults: sched,
			RunWorkers: cfg.runWorkers, Metrics: preg,
		}
		switch param {
		case "agents":
			sc.Agents = int(v)
		case "epsilon":
			sc.Epsilon = v
		case "memory":
			sc.VisitCapacity = int(v)
		default:
			return fmt.Errorf("unknown mapping param %q", param)
		}
		agg, err := mapping.RunMany(worldFor, sc, cfg.runs, cfg.seed+uint64(v*1000))
		if err != nil {
			return err
		}
		d := counterValues(preg.Snapshot(nil),
			"mapping_moves_total", "mapping_meetings_total", "mapping_topo_records_merged_total",
			"faults_injected_total", "faults_recovered_total")
		em.emit(i, fmt.Sprintf("%g,%.1f,%.1f,%.0f,%.0f,%d,%d,%d,%d,%d,%d,%d,%d\n",
			v, agg.Finish.Mean, agg.Finish.CI, agg.Finish.Min, agg.Finish.Max,
			agg.Completed, agg.Runs, d[0], d[1], d[2], agg.Stranded, d[3], d[4]), preg)
		return nil
	})
}

func sweepRouting(param string, vals []float64, policy string, communicate, stigmergy bool, cfg sweepConfig) error {
	kind := core.PolicyOldestNode
	switch policy {
	case "", "oldest", "oldest-node":
	case "random":
		kind = core.PolicyRandom
	default:
		return fmt.Errorf("unknown routing policy %q", policy)
	}
	const steps = 300
	build := func() (*network.World, error) {
		return netgen.Generate(netgen.Routing250(), cfg.seed)
	}
	// One immutable schedule drives every point and run: the fault workload
	// is held fixed while the swept parameter varies.
	var sched *faults.Schedule
	if cfg.faultPreset != "" {
		probe, err := build()
		if err != nil {
			return err
		}
		sched, err = faults.Preset(cfg.faultPreset, probe.N(), probe.Gateways(), steps, cfg.seed)
		if err != nil {
			return err
		}
	}
	// Every point and run sees the same world evolution. With the world
	// cache on, it is recorded once and replayed bit-identically in
	// O(changes) per step; otherwise each run re-steps it live.
	var worldFor func(int) (*network.World, error)
	if cfg.worldCache && cfg.runs*len(vals) > 1 {
		src := network.NewTrajectorySource(steps, 0, sched, build)
		worldFor = src.WorldFor
	} else {
		worldFor = func(int) (*network.World, error) { return build() }
	}
	fmt.Printf("%s,connectivity_mean,connectivity_ci95,end_to_end,stability_std,stale_mean,"+
		"reconv_mean,reconv_e2e_mean,floor_mean,floor_e2e_mean,recovered,censored,stranded,"+
		"runs,moves,meetings,deposits,adoptions\n", param)
	pool := parallel.NewPool(cfg.pointWorkers)
	em := newEmitter(len(vals), cfg.reg)
	return pool.Run(len(vals), func(i int) error {
		v := vals[i]
		preg := metrics.NewRegistry()
		sc := routing.Scenario{
			Agents: 100, Kind: kind, Communicate: communicate, Stigmergy: stigmergy,
			Steps: steps, Faults: sched,
			RunWorkers: cfg.runWorkers, Metrics: preg,
		}
		if cfg.strandedKill {
			sc.StrandedPolicy = routing.StrandedKill
		}
		switch param {
		case "agents":
			sc.Agents = int(v)
		case "history":
			sc.HistorySize = int(v)
		default:
			return fmt.Errorf("unknown routing param %q", param)
		}
		agg, err := routing.RunMany(worldFor, sc, cfg.runs, cfg.seed+uint64(v*1000))
		if err != nil {
			return err
		}
		d := counterValues(preg.Snapshot(nil),
			"routing_moves_total", "routing_meetings_total",
			"routing_deposits_total", "routing_route_adoptions_total")
		em.emit(i, fmt.Sprintf("%g,%.4f,%.4f,%.4f,%.4f,%.2f,%.2f,%.2f,%.4f,%.4f,%d,%d,%d,%d,%d,%d,%d,%d\n",
			v, agg.Mean.Mean, agg.Mean.CI, agg.EndToEnd.Mean, agg.Stability,
			agg.MeanStaleness, agg.Reconv.Mean, agg.ReconvE2E.Mean,
			agg.Floor.Mean, agg.FloorE2E.Mean, agg.Recovered, agg.Censored, agg.Stranded,
			agg.Runs, d[0], d[1], d[2], d[3]), preg)
		return nil
	})
}
