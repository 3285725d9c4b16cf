package main

import (
	"bytes"
	"runtime"
	"time"

	agentmesh "repro"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/replay"
	"repro/internal/rng"
	"repro/internal/trace"
)

// World is a generated wireless network.
type World = agentmesh.World

// workload is one named benchmark workload. setup builds its inputs from
// the seed alone; the harnesses receive only those inputs.
type workload struct {
	name  string
	setup func(seed uint64, tiny bool) (instance, error)
	// fresh marks a workload whose timed batch k draws new run seeds:
	// batch 0 repeats the reference batch, later batches do not.
	fresh bool
}

// instance is a workload's prepared inputs for one seed.
type instance interface {
	// batch performs batch k, calling p.runStart as each run begins, and
	// checks the results. Workloads that are not fresh ignore k: every
	// batch is the same work.
	batch(p *probe, k int) (batchResult, error)
	// setupCost reports how long this set-up spent generating worlds and
	// recording trajectories.
	setupCost() setupCost
}

// outsideTimer is implemented by an instance whose runs exercise a layer
// that neither the registry nor the run-time wrappers can time: the
// traced pass calls timeOutside after each traced batch, outside the
// runs' wall time.
type outsideTimer interface {
	timeOutside(p *probe) error
}

// batchResult is one batch's outcome.
type batchResult struct {
	runs     int
	failed   int    // runs that errored, did not finish or broke an invariant
	digest   uint64 // over the bits of every result the batch produced
	logBytes int64  // binary log bytes the batch's own runs wrote (binlog workload)
}

// setupCost is the time one set-up spent in the world layers.
type setupCost struct {
	generate time.Duration // netgen, per generated world
	record   time.Duration // trajectory recording, per world
}

var workloads = []workload{
	{name: "routing_fig8_live", setup: setupFig8Live},
	{name: "mapping_fig5_super40", setup: setupFig5Super40, fresh: true},
	{name: "routing_fig11_churn_cached", setup: setupFig11ChurnCached},
	{name: "binlog_fig8_record_verify", setup: setupBinlogFig8},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// sizes holds the knobs the self-test shrinks.
type sizes struct {
	steps       int // routing run length
	fig8        int // Fig 8 agents
	fig11       int // Fig 11 agents
	fig8Worlds  int // worlds (= runs) per Fig 8 batch
	fig11Worlds int // worlds per Fig 11 batch
	fig11Runs   int // runs per Fig 11 world
	binlogRuns  int // record-and-verify runs (one world each) per batch
	mapWorlds   int // static worlds per mapping batch
	mapRuns     int // runs per mapping batch, spread over its worlds
}

func sizesFor(tiny bool) sizes {
	if tiny {
		return sizes{steps: 40, fig8: 20, fig11: 10, fig8Worlds: 2, fig11Worlds: 2, fig11Runs: 1, binlogRuns: 1, mapWorlds: 1, mapRuns: 2}
	}
	return sizes{steps: 300, fig8: 200, fig11: 100, fig8Worlds: 30, fig11Worlds: 10, fig11Runs: 4, binlogRuns: 16, mapWorlds: 8, mapRuns: 40}
}

// baseSeed derives a workload's run-seed root from the benchmark seed.
func baseSeed(seed uint64, name string) uint64 {
	return rng.New(seed).Named(name).Uint64()
}

// worldSeeds derives n world seeds from the benchmark seed.
func worldSeeds(seed uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.DeriveSeed(seed, uint64(i))
	}
	return seeds
}

// generateAll generates one world per seed and returns them with the mean
// generation time.
func generateAll(gen func(uint64) (*World, error), seeds []uint64) ([]*World, time.Duration, error) {
	worlds := make([]*World, len(seeds))
	t0 := time.Now()
	for i, s := range seeds {
		w, err := gen(s)
		if err != nil {
			return nil, 0, err
		}
		worlds[i] = w
	}
	return worlds, time.Since(t0) / time.Duration(len(seeds)), nil
}

// combine folds the results of a batch's parts into one.
func combine(parts []batchResult) batchResult {
	var b batchResult
	d := newDigest()
	for _, p := range parts {
		b.runs += p.runs
		b.failed += p.failed
		b.logBytes += p.logBytes
		d.word(p.digest)
	}
	b.digest = uint64(d)
	return b
}

// ---------------------------------------------------------------------------
// routing_fig8_live: Fig 8's expensive end on live incremental stepping.

type fig8Live struct {
	worlds []uint64 // world seed of each run of a batch
	base   uint64
	sc     agentmesh.RoutingScenario
	gen    time.Duration
}

func setupFig8Live(seed uint64, tiny bool) (instance, error) {
	sz := sizesFor(tiny)
	// Every run generates its world afresh, so generation is part of the
	// run; set-up generates each once to time netgen and to fail early.
	seeds := worldSeeds(seed, sz.fig8Worlds)
	_, gen, err := generateAll(agentmesh.RoutingNetwork, seeds)
	if err != nil {
		return nil, err
	}
	return &fig8Live{
		worlds: seeds,
		base:   baseSeed(seed, "routing_fig8_live"),
		sc: agentmesh.RoutingScenario{
			Agents: sz.fig8, Kind: agentmesh.PolicyOldestNode, Steps: sz.steps,
			Workers: 1, RunWorkers: 1, ShardWorkers: 1,
		},
		gen: gen,
	}, nil
}

func (x *fig8Live) batch(p *probe, _ int) (batchResult, error) {
	sc := x.sc
	sc.Metrics, sc.Tracer = p.reg, p.tracer
	agg, err := agentmesh.RunRoutingBatch(func(r int) (*World, error) {
		p.runStart()
		return p.timeGenerate(func() (*World, error) { return agentmesh.RoutingNetwork(x.worlds[r]) })
	}, sc, len(x.worlds), x.base)
	if err != nil {
		return batchResult{}, err
	}
	return checkRouting(agg, len(x.worlds), sc.Steps), nil
}

func (x *fig8Live) setupCost() setupCost { return setupCost{generate: x.gen} }

// ---------------------------------------------------------------------------
// mapping_fig5_super40: Fig 5's expensive end on the static mapping network.

type fig5Super40 struct {
	worlds []*World // static worlds; run r maps worlds[r % len(worlds)]
	runs   int
	base   uint64
	sc     agentmesh.MappingScenario
	gen    time.Duration
}

func setupFig5Super40(seed uint64, tiny bool) (instance, error) {
	// A batch is the paper's 40-run Fig 5 point, spread over a fixed
	// panel of mapping networks: the paper runs every mapping experiment
	// on one fixed network, and finishing times differ so much between
	// networks that seed-drawn worlds would let the seed decide the
	// figures. The seed draws every agent placement.
	sz := sizesFor(tiny)
	panel := make([]uint64, sz.mapWorlds)
	for i := range panel {
		panel[i] = uint64(i + 1)
	}
	worlds, gen, err := generateAll(agentmesh.MappingNetwork, panel)
	if err != nil {
		return nil, err
	}
	return &fig5Super40{
		worlds: worlds,
		runs:   sz.mapRuns,
		base:   baseSeed(seed, "mapping_fig5_super40"),
		sc: agentmesh.MappingScenario{
			Agents: 40, Kind: agentmesh.PolicySuperConscientious, Cooperate: true,
			MaxSteps: 200000,
			// The CLI default: one engine worker per CPU. This is the one
			// workload whose engine runs in parallel (see README.md).
			Workers: runtime.NumCPU(), RunWorkers: 1, ShardWorkers: 1,
		},
		gen: gen,
	}, nil
}

// batch k draws its agent placements from run seeds rooted at k.
// Finishing times vary so much between placements that one batch's 40
// would not give a steady per-seed figure, so timed batches after the
// first draw new ones (see README.md).
func (x *fig5Super40) batch(p *probe, k int) (batchResult, error) {
	sc := x.sc
	sc.Metrics, sc.Tracer = p.reg, p.tracer
	agg, err := agentmesh.RunMappingBatch(func(r int) (*World, error) {
		p.runStart()
		return x.worlds[r%len(x.worlds)], nil
	}, sc, x.runs, rng.DeriveSeed(x.base, uint64(k)))
	if err != nil {
		return batchResult{}, err
	}
	return checkMapping(agg, x.runs), nil
}

func (x *fig5Super40) setupCost() setupCost { return setupCost{generate: x.gen} }

// ---------------------------------------------------------------------------
// routing_fig11_churn_cached: Fig 11 under node churn, replaying
// trajectories recorded in set-up.

type fig11World struct {
	seed uint64
	sc   agentmesh.RoutingScenario // carries the world's churn schedule
	src  *network.TrajectorySource
	traj *network.Trajectory
}

type fig11ChurnCached struct {
	worlds      []fig11World
	base        uint64
	runs        int // per world
	gen, record time.Duration
}

func setupFig11ChurnCached(seed uint64, tiny bool) (instance, error) {
	sz := sizesFor(tiny)
	x := &fig11ChurnCached{base: baseSeed(seed, "routing_fig11_churn_cached"), runs: sz.fig11Runs}
	for _, ws := range worldSeeds(seed, sz.fig11Worlds) {
		t0 := time.Now()
		w, err := agentmesh.RoutingNetwork(ws)
		if err != nil {
			return nil, err
		}
		x.gen += time.Since(t0)
		sched, err := agentmesh.FaultPreset("churn", w.N(), w.Gateways(), sz.steps, ws)
		if err != nil {
			return nil, err
		}
		sc := agentmesh.RoutingScenario{
			Agents: sz.fig11, Kind: agentmesh.PolicyOldestNode, Communicate: true,
			Steps: sz.steps, Faults: sched,
			Workers: 1, RunWorkers: 1, ShardWorkers: 1,
		}
		// RunRoutingBatchCached records its trajectory inside the first
		// run; building the same source here moves the recording into
		// set-up, and each timed batch replays it through RunRoutingBatch.
		src := network.NewTrajectorySource(sz.steps, sc.AnchorEvery, sched, func() (*World, error) { return w, nil })
		t0 = time.Now()
		traj, err := src.Trajectory()
		if err != nil {
			return nil, err
		}
		x.record += time.Since(t0)
		x.worlds = append(x.worlds, fig11World{seed: ws, sc: sc, src: src, traj: traj})
	}
	x.gen /= time.Duration(len(x.worlds))
	x.record /= time.Duration(len(x.worlds))
	return x, nil
}

// batch replays each world's trajectory for x.runs runs: one cached
// harness batch per world.
func (x *fig11ChurnCached) batch(p *probe, _ int) (batchResult, error) {
	parts := make([]batchResult, len(x.worlds))
	for i, fw := range x.worlds {
		sc := fw.sc
		sc.Metrics, sc.Tracer = p.reg, p.tracer
		agg, err := agentmesh.RunRoutingBatch(func(r int) (*World, error) {
			p.runStart()
			return fw.src.WorldFor(r)
		}, sc, x.runs, rng.DeriveSeed(x.base, uint64(i)))
		if err != nil {
			return batchResult{}, err
		}
		parts[i] = checkRouting(agg, x.runs, sc.Steps)
	}
	return combine(parts), nil
}

// timeOutside steps a replay world through each recorded trajectory: the
// runs do the same stepping, but no registry timer covers it.
func (x *fig11ChurnCached) timeOutside(p *probe) error {
	for _, fw := range x.worlds {
		w, err := fw.traj.World()
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < fw.traj.Steps(); i++ {
			w.Step()
		}
		p.out.replayStep += time.Since(t0)
		p.out.replaySteps += fw.traj.Steps()
	}
	return nil
}

func (x *fig11ChurnCached) setupCost() setupCost {
	return setupCost{generate: x.gen, record: x.record}
}

// ---------------------------------------------------------------------------
// binlog_fig8_record_verify: a Fig 8 run recorded into a binary log, then
// decoded and verified against a fresh simulation.

type binlogFig8 struct {
	worlds []uint64 // world seed of each run of a batch
	base   uint64
	sc     agentmesh.RoutingScenario
	gen    time.Duration
}

func setupBinlogFig8(seed uint64, tiny bool) (instance, error) {
	sz := sizesFor(tiny)
	seeds := worldSeeds(seed, sz.binlogRuns)
	_, gen, err := generateAll(agentmesh.RoutingNetwork, seeds)
	if err != nil {
		return nil, err
	}
	return &binlogFig8{
		worlds: seeds,
		base:   baseSeed(seed, "binlog_fig8_record_verify"),
		sc: agentmesh.RoutingScenario{
			Agents: sz.fig8, Kind: agentmesh.PolicyOldestNode, Steps: sz.steps,
			AnchorEvery: network.DefaultAnchorEvery,
			Workers:     1, RunWorkers: 1, ShardWorkers: 1,
		},
		gen: gen,
	}, nil
}

// batch records and verifies one run per world. The probe's tracer is
// unused: every run writes a log of its own.
func (x *binlogFig8) batch(p *probe, _ int) (batchResult, error) {
	parts := make([]batchResult, len(x.worlds))
	for r := range x.worlds {
		p.runStart()
		b, err := x.run(p, r)
		if err != nil {
			return batchResult{}, err
		}
		parts[r] = b
	}
	return combine(parts), nil
}

// run records run r (on world r) into an in-memory binary log, as
// `routing -binlog` does, and verifies the log.
func (x *binlogFig8) run(p *probe, r int) (batchResult, error) {
	meta := replay.RunMeta{
		Scenario: "routing", Spec: netgen.Routing250(), WorldSeed: x.worlds[r],
		Seed: rng.DeriveSeed(x.base, uint64(r)), Steps: x.sc.Steps, AnchorEvery: x.sc.AnchorEvery,
	}
	w, err := p.timeGenerate(func() (*World, error) { return agentmesh.RoutingNetwork(meta.WorldSeed) })
	if err != nil {
		return batchResult{}, err
	}
	hdr, err := replay.NewLogHeader(meta)
	if err != nil {
		return batchResult{}, err
	}
	var buf bytes.Buffer
	lw, err := trace.NewLogWriter(&buf, hdr)
	if err != nil {
		return batchResult{}, err
	}
	sc := x.sc
	sc.Tracer, sc.Metrics = lw, p.reg
	if p.out != nil {
		sc.Tracer = timedSink{lw: lw, out: p.out}
	}
	res, err := agentmesh.RunRouting(w, sc, meta.Seed)
	if err != nil {
		return batchResult{}, err
	}
	if err := lw.Close(); err != nil {
		return batchResult{}, err
	}
	log := buf.Bytes()

	// cmd/replay -verify: open the log, decode it, verify it in lockstep
	// with a fresh simulation.
	t0 := time.Now()
	lr, err := trace.NewLogReader(bytes.NewReader(log))
	if err != nil {
		return batchResult{}, err
	}
	events := 0
	if err := lr.Scan(func(r trace.Record) error {
		if r.Kind == trace.RecordEvent {
			events++
		}
		return nil
	}); err != nil {
		return batchResult{}, err
	}
	t1 := time.Now()
	checked, verr := replay.VerifyLog(lr, meta)
	t2 := time.Now()
	if o := p.out; o != nil {
		o.decode += t1.Sub(t0)
		o.verify += t2.Sub(t1)
		o.verifies++
		o.events += int64(lw.Count())
		o.logBytes += int64(len(log))
	}
	b := batchResult{runs: 1, logBytes: int64(len(log)), digest: digestBinlog(res, log, checked)}
	if verr != nil || checked < 1 || events != lw.Count() || !routingResultOK(res, x.sc.Steps) {
		b.failed = 1
	}
	return b, nil
}

func (x *binlogFig8) setupCost() setupCost { return setupCost{generate: x.gen} }
