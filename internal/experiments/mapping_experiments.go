package experiments

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/stats"
)

// mappingWorlds memoises the canonical 300-node mapping network per seed:
// the paper runs every mapping experiment on one fixed network.
var mappingWorlds sync.Map

func mappingWorld(seed uint64) (*network.World, error) {
	if w, ok := mappingWorlds.Load(seed); ok {
		return w.(*network.World), nil
	}
	w, err := netgen.Generate(netgen.Mapping300(), seed)
	if err != nil {
		return nil, err
	}
	mappingWorlds.Store(seed, w)
	return w, nil
}

// seedFor derives a distinct base seed per parameter setting.
func seedFor(root uint64, label string) uint64 {
	return rng.New(root).Named(label).Uint64()
}

// staticWorldFor adapts a shared static world to RunMany's worldFor
// contract. Sequential replication shares w across runs; parallel
// replication (cfg.RunWorkers > 1) needs a world per run, so every call
// clones w through the snapshot machinery — a bit-identical world at a
// fraction of the netgen cost (no placement retries, no connectivity
// check, no radio-range binary search).
func staticWorldFor(cfg Config, w *network.World) func(int) (*network.World, error) {
	if cfg.RunWorkers > 1 {
		snap := w.Snapshot()
		return func(int) (*network.World, error) { return snap.World() }
	}
	return func(int) (*network.World, error) { return w, nil }
}

// mapSetting runs one mapping parameter setting.
func mapSetting(cfg Config, label string, sc mapping.Scenario) (mapping.Aggregate, error) {
	sc.RunWorkers = cfg.RunWorkers
	if sc.MaxSteps == 0 {
		sc.MaxSteps = 200000
	}
	w, err := mappingWorld(cfg.Seed)
	if err != nil {
		return mapping.Aggregate{}, err
	}
	worldFor := staticWorldFor(cfg, w)
	return mapping.RunMany(worldFor, sc, cfg.Runs, seedFor(cfg.Seed, label))
}

// finishRow formats one agent type's finishing-time statistics.
func finishRow(name string, agg mapping.Aggregate) []string {
	return []string{
		name,
		f1(agg.Finish.Mean) + "±" + f1(agg.Finish.CI),
		f1(agg.Finish.Min),
		f1(agg.Finish.Median),
		f1(agg.Finish.Max),
		fmt.Sprintf("%d/%d", agg.Completed, agg.Runs),
	}
}

var finishColumns = []string{"agent", "finish mean", "min", "median", "max", "completed"}

func fig1(cfg Config) (Report, error) {
	rnd, err := mapSetting(cfg, "fig1/random", mapping.Scenario{Agents: 1, Kind: core.PolicyRandom})
	if err != nil {
		return Report{}, err
	}
	con, err := mapSetting(cfg, "fig1/conscientious", mapping.Scenario{Agents: 1, Kind: core.PolicyConscientious})
	if err != nil {
		return Report{}, err
	}
	ratio := rnd.Finish.Mean / con.Finish.Mean
	return Report{
		PaperClaim: "single conscientious agent finishes ~3000 steps vs ~8000 for random (~2.7x)",
		Params:     fmt.Sprintf("300-node net, 1 agent, %d runs", cfg.Runs),
		Table: Table{Columns: finishColumns, Rows: [][]string{
			finishRow("random", rnd),
			finishRow("conscientious", con),
		}},
		Series: []Series{
			{Name: "random", Values: rnd.AvgMinCurve},
			{Name: "conscientious", Values: con.AvgMinCurve},
		},
		Checks: []Check{
			check("conscientious beats random", con.Finish.Mean < rnd.Finish.Mean,
				"%.0f vs %.0f (ratio %.2fx, paper ~2.7x)", con.Finish.Mean, rnd.Finish.Mean, ratio),
		},
	}, nil
}

func fig2(cfg Config) (Report, error) {
	rnd, err := mapSetting(cfg, "fig2/random", mapping.Scenario{Agents: 1, Kind: core.PolicyRandom, Stigmergy: true})
	if err != nil {
		return Report{}, err
	}
	con, err := mapSetting(cfg, "fig2/conscientious", mapping.Scenario{Agents: 1, Kind: core.PolicyConscientious, Stigmergy: true})
	if err != nil {
		return Report{}, err
	}
	// The non-stigmergic counterparts for the cross-figure comparison.
	plainRnd, err := mapSetting(cfg, "fig1/random", mapping.Scenario{Agents: 1, Kind: core.PolicyRandom})
	if err != nil {
		return Report{}, err
	}
	plainCon, err := mapSetting(cfg, "fig1/conscientious", mapping.Scenario{Agents: 1, Kind: core.PolicyConscientious})
	if err != nil {
		return Report{}, err
	}
	return Report{
		PaperClaim: "stigmergy speeds up both single agents: conscientious 3000→2500, random 8000→6600",
		Params:     fmt.Sprintf("300-node net, 1 agent, footprints on, %d runs", cfg.Runs),
		Table: Table{Columns: finishColumns, Rows: [][]string{
			finishRow("stig random", rnd),
			finishRow("stig conscientious", con),
			finishRow("plain random", plainRnd),
			finishRow("plain conscientious", plainCon),
		}},
		Series: []Series{
			{Name: "stig-random", Values: rnd.AvgMinCurve},
			{Name: "stig-conscientious", Values: con.AvgMinCurve},
		},
		Checks: []Check{
			check("stigmergy speeds up random", rnd.Finish.Mean < plainRnd.Finish.Mean,
				"%.0f vs %.0f", rnd.Finish.Mean, plainRnd.Finish.Mean),
			knownDeviation("stigmergy speeds up conscientious",
				con.Finish.Mean < plainCon.Finish.Mean,
				"%.0f vs %.0f - our conscientious walker is already near-optimal (~2.8 visits/node vs the paper's ~10), leaving stigmergy nothing to repair for a single agent",
				con.Finish.Mean, plainCon.Finish.Mean),
			check("stig conscientious beats stig random", con.Finish.Mean < rnd.Finish.Mean,
				"%.0f vs %.0f", con.Finish.Mean, rnd.Finish.Mean),
		},
	}, nil
}

func fig3(cfg Config) (Report, error) {
	team, err := mapSetting(cfg, "fig3/team",
		mapping.Scenario{Agents: 15, Kind: core.PolicyConscientious, Cooperate: true})
	if err != nil {
		return Report{}, err
	}
	solo, err := mapSetting(cfg, "fig3/solo",
		mapping.Scenario{Agents: 15, Kind: core.PolicyConscientious})
	if err != nil {
		return Report{}, err
	}
	return Report{
		PaperClaim: "15 cooperating conscientious agents finish in ~140 steps; cooperation is the driver",
		Params:     fmt.Sprintf("300-node net, 15 agents, %d runs", cfg.Runs),
		Table: Table{Columns: finishColumns, Rows: [][]string{
			finishRow("cooperating", team),
			finishRow("isolated", solo),
		}},
		Series: []Series{
			{Name: "avg-knowledge", Values: team.AvgCurve},
			{Name: "slowest-agent", Values: team.AvgMinCurve},
		},
		Checks: []Check{
			check("cooperation beats isolation", team.Finish.Mean < solo.Finish.Mean,
				"%.0f vs %.0f", team.Finish.Mean, solo.Finish.Mean),
		},
	}, nil
}

func fig4(cfg Config) (Report, error) {
	stig, err := mapSetting(cfg, "fig4/stig",
		mapping.Scenario{Agents: 15, Kind: core.PolicyConscientious, Cooperate: true, Stigmergy: true})
	if err != nil {
		return Report{}, err
	}
	plain, err := mapSetting(cfg, "fig3/team",
		mapping.Scenario{Agents: 15, Kind: core.PolicyConscientious, Cooperate: true})
	if err != nil {
		return Report{}, err
	}
	speedup := (plain.Finish.Mean - stig.Finish.Mean) / plain.Finish.Mean * 100
	return Report{
		PaperClaim: "15 stigmergic conscientious agents finish ~125 steps, ~10% faster than Minar's (~140)",
		Params:     fmt.Sprintf("300-node net, 15 agents, footprints on, %d runs", cfg.Runs),
		Table: Table{Columns: finishColumns, Rows: [][]string{
			finishRow("stigmergic", stig),
			finishRow("plain", plain),
		}},
		Series: []Series{
			{Name: "stig-avg-knowledge", Values: stig.AvgCurve},
			{Name: "plain-avg-knowledge", Values: plain.AvgCurve},
		},
		Checks: []Check{
			knownDeviation("stigmergy speeds up the team",
				stig.Finish.Mean < plain.Finish.Mean,
				"%.0f vs %.0f (%.0f%% faster, paper ~10%%) - neutral here for the same reason as Fig 2: the conscientious baseline is already near-optimal, so footprints have no inefficiency to remove; their value shows where agents herd (Figs 6, extA)",
				stig.Finish.Mean, plain.Finish.Mean, speedup),
		},
	}, nil
}

// populationSweep is the shared machinery of Figs 5 and 6.
func populationSweep(cfg Config, label string, stigmergy bool) (Report, error) {
	pops := []int{1, 2, 5, 10, 15, 25, 40}
	if cfg.Quick {
		pops = []int{2, 10, 40}
	}
	table := Table{Columns: []string{"population", "conscientious", "super-conscientious", "winner"}}
	var conSeries, supSeries Series
	conSeries.Name, supSeries.Name = "conscientious", "super-conscientious"
	var smallOK, largeDiverge bool
	var firstCon, firstSup, lastCon, lastSup float64
	for i, pop := range pops {
		con, err := mapSetting(cfg, fmt.Sprintf("%s/con/%d", label, pop),
			mapping.Scenario{Agents: pop, Kind: core.PolicyConscientious, Cooperate: true, Stigmergy: stigmergy})
		if err != nil {
			return Report{}, err
		}
		sup, err := mapSetting(cfg, fmt.Sprintf("%s/sup/%d", label, pop),
			mapping.Scenario{Agents: pop, Kind: core.PolicySuperConscientious, Cooperate: true, Stigmergy: stigmergy})
		if err != nil {
			return Report{}, err
		}
		winner := "super"
		if con.Finish.Mean < sup.Finish.Mean {
			winner = "conscientious"
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", pop),
			f1(con.Finish.Mean) + "±" + f1(con.Finish.CI),
			f1(sup.Finish.Mean) + "±" + f1(sup.Finish.CI),
			winner,
		})
		conSeries.Values = append(conSeries.Values, con.Finish.Mean)
		supSeries.Values = append(supSeries.Values, sup.Finish.Mean)
		if i == 0 {
			firstCon, firstSup = con.Finish.Mean, sup.Finish.Mean
			smallOK = sup.Finish.Mean <= con.Finish.Mean*1.05
		}
		if i == len(pops)-1 {
			lastCon, lastSup = con.Finish.Mean, sup.Finish.Mean
			largeDiverge = sup.Finish.Mean > con.Finish.Mean
		}
	}
	rep := Report{
		Params: fmt.Sprintf("300-node net, populations %v, %d runs each", pops, cfg.Runs),
		Table:  table,
		Series: []Series{conSeries, supSeries},
	}
	if stigmergy {
		rep.PaperClaim = "with stigmergy, super-conscientious wins at ALL population sizes"
		rep.Checks = []Check{
			check("super wins at smallest population", firstSup <= firstCon*1.05,
				"super %.0f vs con %.0f", firstSup, firstCon),
			check("super wins at largest population", lastSup < lastCon,
				"super %.0f vs con %.0f", lastSup, lastCon),
		}
	} else {
		rep.PaperClaim = "super wins small populations but LOSES to conscientious at large ones (the surprising result)"
		rep.Checks = []Check{
			check("super competitive at smallest population", smallOK,
				"super %.0f vs con %.0f", firstSup, firstCon),
			check("conscientious wins at largest population", largeDiverge,
				"super %.0f vs con %.0f", lastSup, lastCon),
		}
	}
	return rep, nil
}

func fig5(cfg Config) (Report, error) { return populationSweep(cfg, "fig5", false) }
func fig6(cfg Config) (Report, error) { return populationSweep(cfg, "fig6", true) }

func extB(cfg Config) (Report, error) {
	pop := 40
	if cfg.Quick {
		pop = 16
	}
	table := Table{Columns: []string{"epsilon", "finish mean", "completed"}}
	var series Series
	series.Name = "finish-vs-epsilon"
	epsilons := []float64{0, 0.05, 0.1, 0.2, 0.4}
	means := make([]float64, len(epsilons))
	for i, eps := range epsilons {
		agg, err := mapSetting(cfg, fmt.Sprintf("extB/%v", eps), mapping.Scenario{
			Agents: pop, Kind: core.PolicySuperConscientious, Cooperate: true, Epsilon: eps,
		})
		if err != nil {
			return Report{}, err
		}
		means[i] = agg.Finish.Mean
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.2f", eps),
			f1(agg.Finish.Mean) + "±" + f1(agg.Finish.CI),
			fmt.Sprintf("%d/%d", agg.Completed, agg.Runs),
		})
		series.Values = append(series.Values, agg.Finish.Mean)
	}
	best := means[0]
	for _, m := range means[1:] {
		if m < best {
			best = m
		}
	}
	return Report{
		PaperClaim: "Minar's fix: randomness disperses large super-conscientious populations (best case matches conscientious)",
		Params:     fmt.Sprintf("300-node net, %d super-conscientious agents, epsilon sweep, %d runs", pop, cfg.Runs),
		Table:      table,
		Series:     []Series{series},
		Checks: []Check{
			check("some epsilon beats epsilon=0", best < means[0],
				"best %.0f vs plain %.0f", best, means[0]),
		},
	}, nil
}

func extE(cfg Config) (Report, error) {
	// A battery-degraded mapping network: map it once, let it decay, and
	// measure how far the topology drifts from the one the team mapped and
	// what a remap costs.
	spec := netgen.Mapping300()
	spec.BatteryFraction = 0.5
	spec.DecayPerStep = 0.0003 // slow enough for the initial survey to finish
	spec.FloorFraction = 0.8   // degrade links without partitioning the network
	runs := cfg.Runs
	if runs > 10 {
		runs = 10 // each run regenerates and decays a full world
	}
	var firstFinish, accAtFinish, accAfterDecay, remapCoverage []float64
	const decaySteps = 800
	for r := 0; r < runs; r++ {
		w, err := netgen.Generate(spec, cfg.Seed+uint64(r))
		if err != nil {
			return Report{}, err
		}
		sc := mapping.Scenario{Agents: 15, Kind: core.PolicyConscientious,
			Cooperate: true, Stigmergy: true}
		res, err := mapping.Run(w, sc, seedFor(cfg.Seed, "extE")+uint64(r))
		if err != nil {
			return Report{}, err
		}
		if !res.Finished {
			continue
		}
		firstFinish = append(firstFinish, float64(res.FinishStep))
		// The team's map is taken to be the topology at finish (the run
		// ended on perfect knowledge). The "at finish" row compares that
		// clone with the world it was just cloned from, so it reads 1.000
		// by construction; the "after decay" row is the fraction of nodes
		// whose out-list is unchanged after decaySteps more steps — the
		// topology drift since the map finished, not a measured agent map.
		snapshot := w.Topology().Clone()
		match := 0
		for u := 0; u < w.N(); u++ {
			if slices.Equal(snapshot.Out(network.NodeID(u)), w.Neighbors(network.NodeID(u))) {
				match++
			}
		}
		accAtFinish = append(accAtFinish, float64(match)/float64(w.N()))
		for i := 0; i < decaySteps; i++ {
			w.Step()
		}
		match = 0
		for u := 0; u < w.N(); u++ {
			if slices.Equal(snapshot.Out(network.NodeID(u)), w.Neighbors(network.NodeID(u))) {
				match++
			}
		}
		accAfterDecay = append(accAfterDecay, float64(match)/float64(w.N()))
		// Remap the decayed network. Degradation usually costs the
		// network strong connectivity, so "perfect knowledge of every
		// node" is no longer achievable — the honest remap metric is the
		// coverage a fresh team reaches within a bounded budget.
		remapSC := sc
		remapSC.MaxSteps = 5000
		res2, err := mapping.Run(w, remapSC, seedFor(cfg.Seed, "extE/remap")+uint64(r))
		if err != nil {
			return Report{}, err
		}
		remapCoverage = append(remapCoverage, res2.Curve[len(res2.Curve)-1])
	}
	finish := stats.Summarize(firstFinish)
	acc0 := stats.Summarize(accAtFinish)
	acc1 := stats.Summarize(accAfterDecay)
	remap := stats.Summarize(remapCoverage)
	return Report{
		PaperClaim: "link degradation invalidates the map over time, so agents must be fired up again (paper §II.A)",
		Params: fmt.Sprintf("300-node net, 50%% battery nodes decaying, %d decay steps, %d runs",
			decaySteps, runs),
		Table: Table{
			Columns: []string{"quantity", "mean", "min", "max"},
			Rows: [][]string{
				{"initial map finish (steps)", f1(finish.Mean), f1(finish.Min), f1(finish.Max)},
				{"map accuracy at finish", f3(acc0.Mean), f3(acc0.Min), f3(acc0.Max)},
				{"map accuracy after decay", f3(acc1.Mean), f3(acc1.Min), f3(acc1.Max)},
				{"remap coverage (fraction)", f3(remap.Mean), f3(remap.Min), f3(remap.Max)},
			},
		},
		Checks: []Check{
			check("decay invalidates the map", acc1.Mean < acc0.Mean,
				"accuracy %.3f → %.3f", acc0.Mean, acc1.Mean),
			check("remap re-learns the reachable network", remap.N > 0 && remap.Mean > 0.6,
				"remap coverage %.3f over %d runs (degradation usually breaks strong connectivity, so full coverage is impossible)", remap.Mean, remap.N),
		},
	}, nil
}

// knownDeviation builds a Check flagged as a documented deviation when it
// fails.
func knownDeviation(name string, ok bool, format string, args ...any) Check {
	c := check(name, ok, format, args...)
	c.Known = true
	return c
}
