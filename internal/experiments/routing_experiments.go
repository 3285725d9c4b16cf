package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// routingBuild generates the canonical 250-node MANET with the same node
// placement and movement trace for every run, as the paper does.
func routingBuild(seed uint64) func() (*network.World, error) {
	return func() (*network.World, error) {
		return netgen.Generate(netgen.Routing250(), seed)
	}
}

// routeSetting runs one routing parameter setting through the cached
// trajectory source: the world's mobility + link churn is recorded once
// per setting and replayed bit-identically by every run, so replication
// parallelises safely without paying the world-step cost R times.
func routeSetting(cfg Config, label string, sc routing.Scenario) (routing.Aggregate, error) {
	sc.RunWorkers = cfg.RunWorkers
	return routing.RunManyCached(routingBuild(cfg.Seed), sc, cfg.Runs, seedFor(cfg.Seed, label))
}

var connectivityColumns = []string{"setting", "connectivity", "end-to-end", "stability (std)"}

func connRow(name string, agg routing.Aggregate) []string {
	return []string{
		name,
		f3(agg.Mean.Mean) + "±" + f3(agg.Mean.CI),
		f3(agg.EndToEnd.Mean),
		f3(agg.Stability),
	}
}

func fig7(cfg Config) (Report, error) {
	agg, err := routeSetting(cfg, "fig7",
		routing.Scenario{Agents: 100, Kind: core.PolicyOldestNode})
	if err != nil {
		return Report{}, err
	}
	early := stats.WindowMean(agg.AvgSeries, 0, 10)
	late := stats.WindowMean(agg.AvgSeries, 150, 300)
	lateStd := stats.WindowStd(agg.AvgSeries, 150, 300)
	converged := stats.ConvergenceStep(agg.AvgSeries, 0.05)
	return Report{
		PaperClaim: "connectivity starts at zero, ramps quickly, then fluctuates around a converged mean (converged by step 150)",
		Params:     fmt.Sprintf("250-node MANET, 12 gateways, 100 oldest-node agents, 300 steps, %d runs", cfg.Runs),
		Table: Table{Columns: connectivityColumns, Rows: [][]string{
			connRow("100 oldest-node", agg),
		}},
		Series: []Series{
			{Name: "connectivity", Values: agg.AvgSeries},
			{Name: "physical-upper-bound", Values: agg.AvgIdeal},
		},
		Checks: []Check{
			check("starts near zero", early < 0.3, "first-10-step mean %.3f", early),
			check("converges to a plateau", late > early*2, "early %.3f vs late %.3f", early, late),
			check("fluctuates tightly after convergence", lateStd < 0.1, "window std %.3f", lateStd),
			check("converged before the measurement window", converged >= 0 && converged <= 150,
				"converged at step %d (paper: 'at time 150 or well before')", converged),
		},
	}, nil
}

func fig8(cfg Config) (Report, error) {
	pops := []int{10, 25, 50, 100, 200}
	if cfg.Quick {
		pops = []int{10, 50, 150}
	}
	table := Table{Columns: []string{"population", "oldest-node", "random", "oldest stability", "random stability"}}
	oldSeries := Series{Name: "oldest-node"}
	rndSeries := Series{Name: "random"}
	oldWins := 0
	var oldMeans, oldStds []float64
	for _, pop := range pops {
		old, err := routeSetting(cfg, fmt.Sprintf("fig8/old/%d", pop),
			routing.Scenario{Agents: pop, Kind: core.PolicyOldestNode})
		if err != nil {
			return Report{}, err
		}
		rnd, err := routeSetting(cfg, fmt.Sprintf("fig8/rnd/%d", pop),
			routing.Scenario{Agents: pop, Kind: core.PolicyRandom})
		if err != nil {
			return Report{}, err
		}
		if old.Mean.Mean > rnd.Mean.Mean {
			oldWins++
		}
		oldMeans = append(oldMeans, old.Mean.Mean)
		oldStds = append(oldStds, old.Stability)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", pop),
			f3(old.Mean.Mean) + "±" + f3(old.Mean.CI),
			f3(rnd.Mean.Mean) + "±" + f3(rnd.Mean.CI),
			f3(old.Stability),
			f3(rnd.Stability),
		})
		oldSeries.Values = append(oldSeries.Values, old.Mean.Mean)
		rndSeries.Values = append(rndSeries.Values, rnd.Mean.Mean)
	}
	monotone := true
	for i := 1; i < len(oldMeans); i++ {
		if oldMeans[i] < oldMeans[i-1]-0.02 {
			monotone = false
		}
	}
	return Report{
		PaperClaim: "higher population ⇒ higher and more stable connectivity; oldest-node beats random at every setting",
		Params:     fmt.Sprintf("250-node MANET, populations %v, %d runs each", pops, cfg.Runs),
		Table:      table,
		Series:     []Series{oldSeries, rndSeries},
		Checks: []Check{
			check("population raises connectivity", monotone,
				"oldest means %v", fmtFloats(oldMeans)),
			check("population steadies connectivity", oldStds[len(oldStds)-1] < oldStds[0],
				"stability %0.3f → %0.3f", oldStds[0], oldStds[len(oldStds)-1]),
			check("oldest-node wins at every population", oldWins == len(pops),
				"%d/%d settings", oldWins, len(pops)),
		},
	}, nil
}

func fig9(cfg Config) (Report, error) {
	hists := []int{4, 8, 16, 32, 64}
	if cfg.Quick {
		hists = []int{4, 16, 64}
	}
	table := Table{Columns: []string{"history size", "connectivity", "end-to-end", "stability (std)"}}
	series := Series{Name: "connectivity-vs-history"}
	var means, stds []float64
	for _, h := range hists {
		agg, err := routeSetting(cfg, fmt.Sprintf("fig9/%d", h),
			routing.Scenario{Agents: 100, Kind: core.PolicyOldestNode, HistorySize: h})
		if err != nil {
			return Report{}, err
		}
		means = append(means, agg.Mean.Mean)
		stds = append(stds, agg.Stability)
		table.Rows = append(table.Rows, connRow(fmt.Sprintf("%d", h), agg))
		series.Values = append(series.Values, agg.Mean.Mean)
	}
	monotone := true
	for i := 1; i < len(means); i++ {
		if means[i] < means[i-1]-0.02 {
			monotone = false
		}
	}
	return Report{
		PaperClaim: "larger history ⇒ higher and more stable connectivity",
		Params:     fmt.Sprintf("250-node MANET, 100 oldest-node agents, history sizes %v, %d runs", hists, cfg.Runs),
		Table:      table,
		Series:     []Series{series},
		Checks: []Check{
			check("history raises connectivity", monotone, "means %v", fmtFloats(means)),
			check("history steadies connectivity", stds[len(stds)-1] <= stds[0]+0.01,
				"stability %0.3f → %0.3f", stds[0], stds[len(stds)-1]),
		},
	}, nil
}

// commExperiment is the shared machinery of Figs 10 and 11.
func commExperiment(cfg Config, label string, kind core.PolicyKind, hists []int) (Table, []Series, map[int][2]float64, error) {
	table := Table{Columns: []string{"history", "comm off", "comm on", "effect"}}
	offSeries := Series{Name: "comm-off"}
	onSeries := Series{Name: "comm-on"}
	results := make(map[int][2]float64, len(hists))
	for _, h := range hists {
		off, err := routeSetting(cfg, fmt.Sprintf("%s/off/%d", label, h),
			routing.Scenario{Agents: 100, Kind: kind, HistorySize: h})
		if err != nil {
			return Table{}, nil, nil, err
		}
		on, err := routeSetting(cfg, fmt.Sprintf("%s/on/%d", label, h),
			routing.Scenario{Agents: 100, Kind: kind, HistorySize: h, Communicate: true})
		if err != nil {
			return Table{}, nil, nil, err
		}
		effect := "helps"
		if on.Mean.Mean < off.Mean.Mean {
			effect = "hurts"
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", h),
			f3(off.Mean.Mean) + "±" + f3(off.Mean.CI),
			f3(on.Mean.Mean) + "±" + f3(on.Mean.CI),
			effect,
		})
		offSeries.Values = append(offSeries.Values, off.Mean.Mean)
		onSeries.Values = append(onSeries.Values, on.Mean.Mean)
		results[h] = [2]float64{off.Mean.Mean, on.Mean.Mean}
	}
	return table, []Series{offSeries, onSeries}, results, nil
}

func fig10(cfg Config) (Report, error) {
	hists := []int{8, 16, 32}
	if cfg.Quick {
		hists = []int{8, 32}
	}
	table, series, results, err := commExperiment(cfg, "fig10", core.PolicyRandom, hists)
	if err != nil {
		return Report{}, err
	}
	helped := 0
	for _, h := range hists {
		if results[h][1] > results[h][0] {
			helped++
		}
	}
	return Report{
		PaperClaim: "exchanging the best route in meetings improves random agents' connectivity (shown per cache size)",
		Params:     fmt.Sprintf("250-node MANET, 100 random agents, history sizes %v, %d runs", hists, cfg.Runs),
		Table:      table,
		Series:     series,
		Checks: []Check{
			check("communication helps random agents", helped >= (len(hists)+1)/2,
				"helped at %d/%d history sizes", helped, len(hists)),
		},
	}, nil
}

func fig11(cfg Config) (Report, error) {
	hists := []int{8, 16, 32}
	if cfg.Quick {
		hists = []int{8, 32}
	}
	table, series, results, err := commExperiment(cfg, "fig11", core.PolicyOldestNode, hists)
	if err != nil {
		return Report{}, err
	}
	hurt := 0
	for _, h := range hists {
		if results[h][1] < results[h][0] {
			hurt++
		}
	}
	return Report{
		PaperClaim: "communication HURTS oldest-node agents: merged histories make them identical, so they chase one another",
		Params:     fmt.Sprintf("250-node MANET, 100 oldest-node agents, history sizes %v, %d runs", hists, cfg.Runs),
		Table:      table,
		Series:     series,
		Checks: []Check{
			check("communication hurts oldest-node agents", hurt == len(hists),
				"hurt at %d/%d history sizes", hurt, len(hists)),
		},
	}, nil
}

func extA(cfg Config) (Report, error) {
	settings := []struct {
		name string
		sc   routing.Scenario
	}{
		{"oldest", routing.Scenario{Agents: 100, Kind: core.PolicyOldestNode}},
		{"oldest + stig", routing.Scenario{Agents: 100, Kind: core.PolicyOldestNode, Stigmergy: true}},
		{"oldest + comm", routing.Scenario{Agents: 100, Kind: core.PolicyOldestNode, Communicate: true}},
		{"oldest + comm + stig", routing.Scenario{Agents: 100, Kind: core.PolicyOldestNode, Communicate: true, Stigmergy: true}},
	}
	table := Table{Columns: connectivityColumns}
	means := make(map[string]float64, len(settings))
	var curves []Series
	for _, s := range settings {
		agg, err := routeSetting(cfg, "extA/"+s.name, s.sc)
		if err != nil {
			return Report{}, err
		}
		means[s.name] = agg.Mean.Mean
		table.Rows = append(table.Rows, connRow(s.name, agg))
		curves = append(curves, Series{Name: s.name, Values: agg.AvgSeries})
	}
	return Report{
		PaperClaim: "future work: stigmergy should improve routing agents — it must at least repair the Fig 11 chasing pathology",
		Params:     fmt.Sprintf("250-node MANET, 100 oldest-node agents, %d runs", cfg.Runs),
		Table:      table,
		Series:     curves,
		Checks: []Check{
			check("stigmergy rescues communicating agents",
				means["oldest + comm + stig"] > means["oldest + comm"]+0.03,
				"%.3f vs %.3f", means["oldest + comm + stig"], means["oldest + comm"]),
			check("stigmergy does not hurt isolated agents",
				means["oldest + stig"] >= means["oldest"]-0.02,
				"%.3f vs %.3f", means["oldest + stig"], means["oldest"]),
		},
	}, nil
}

func extC(cfg Config) (Report, error) {
	// Mapping overhead: agents vs flooding on the same 300-node network.
	w, err := mappingWorld(cfg.Seed)
	if err != nil {
		return Report{}, err
	}
	flood := baseline.FloodMap(w, 0)
	team, err := mapSetting(cfg, "extC/map",
		mapping.Scenario{Agents: 15, Kind: core.PolicyConscientious, Cooperate: true, Stigmergy: true})
	if err != nil {
		return Report{}, err
	}
	agentRecords := team.Overhead.TopoRecordsReceived / cfg.Runs
	agentMoves := team.Overhead.Moves / cfg.Runs
	agentBytes := agentMoves*core.CodeBytes + agentRecords*core.TopoRecordBytes

	// Routing overhead: agents vs distance-vector on the same MANET trace.
	dvWorld, err := netgen.Generate(netgen.Routing250(), cfg.Seed)
	if err != nil {
		return Report{}, err
	}
	dv := baseline.NewDistanceVector(dvWorld, 3)
	var dvConn []float64
	for step := 0; step < 300; step++ {
		dv.Step()
		if step >= 150 {
			dvConn = append(dvConn, dv.Measure(step).EndToEnd)
		}
		dvWorld.Step()
	}
	dvMessages := dv.Messages
	dvBytes := dvMessages * 12 * 8 // 12 gateway entries of ~8 bytes per advertisement
	agents, err := routeSetting(cfg, "extC/route",
		routing.Scenario{Agents: 100, Kind: core.PolicyOldestNode})
	if err != nil {
		return Report{}, err
	}
	perRun := agents.Overhead.Moves / cfg.Runs
	agentRouteBytes := perRun * (core.CodeBytes + 32*core.VisitRecordBytes)

	return Report{
		PaperClaim: "mobile agents approach protocol-grade results at a fraction of the message cost (the paper's overhead argument vs [3],[10])",
		Params:     fmt.Sprintf("300-node mapping net + 250-node MANET, %d runs for agent numbers", cfg.Runs),
		Table: Table{
			Columns: []string{"approach", "result", "messages", "est. bytes"},
			Rows: [][]string{
				{"flooding map", fmt.Sprintf("complete in %d rounds", flood.Rounds),
					fmt.Sprintf("%d", flood.Messages), fmt.Sprintf("%d", flood.Bytes)},
				{"15 stig agents map", fmt.Sprintf("complete in %.0f steps", team.Finish.Mean),
					fmt.Sprintf("%d moves", agentMoves), fmt.Sprintf("%d", agentBytes)},
				{"distance-vector routing", fmt.Sprintf("connectivity %.3f", stats.Mean(dvConn)),
					fmt.Sprintf("%d", dvMessages), fmt.Sprintf("%d", dvBytes)},
				{"100 oldest-node agents", fmt.Sprintf("connectivity %.3f (e2e %.3f)", agents.Mean.Mean, agents.EndToEnd.Mean),
					fmt.Sprintf("%d moves", perRun), fmt.Sprintf("%d", agentRouteBytes)},
			},
		},
		Checks: []Check{
			check("agent mapping far cheaper than flooding", agentBytes < flood.Bytes/2,
				"%d vs %d bytes", agentBytes, flood.Bytes),
			check("agent routing cheaper than distance-vector", agentRouteBytes < dvBytes,
				"%d vs %d bytes (%.1fx)", agentRouteBytes, dvBytes, float64(dvBytes)/float64(agentRouteBytes)),
			check("distance-vector still wins on raw connectivity", stats.Mean(dvConn) > agents.EndToEnd.Mean,
				"dv %.3f vs agents %.3f end-to-end", stats.Mean(dvConn), agents.EndToEnd.Mean),
		},
	}, nil
}

func extD(cfg Config) (Report, error) {
	runs := cfg.Runs
	if runs > 10 {
		runs = 10
	}
	var ratios, conns, e2es, hops []float64
	for r := 0; r < runs; r++ {
		w, err := netgen.Generate(netgen.Routing250(), cfg.Seed)
		if err != nil {
			return Report{}, err
		}
		gen := traffic.NewGen(5, 64, 100, rng.New(seedFor(cfg.Seed, "extD/traffic")+uint64(r)))
		sc := routing.Scenario{
			Agents: 100, Kind: core.PolicyOldestNode,
			Observer: gen.Step,
		}
		res, err := routing.Run(w, sc, seedFor(cfg.Seed, "extD")+uint64(r))
		if err != nil {
			return Report{}, err
		}
		st := gen.Stats()
		ratios = append(ratios, st.DeliveryRatio())
		conns = append(conns, res.Mean)
		e2es = append(e2es, res.MeanEndToEnd)
		hops = append(hops, st.MeanHops())
	}
	ratio := stats.Mean(ratios)
	e2e := stats.Mean(e2es)
	return Report{
		PaperClaim: "the connectivity metric reflects real multi-hop deliverability ('an average packet will use a multi-hop path to reach one of those gateways')",
		Params:     fmt.Sprintf("250-node MANET, 100 oldest-node agents, 5 packets/step after step 100, %d runs", runs),
		Table: Table{
			Columns: []string{"quantity", "mean"},
			Rows: [][]string{
				{"delivery ratio", f3(ratio)},
				{"end-to-end connectivity", f3(e2e)},
				{"local connectivity", f3(stats.Mean(conns))},
				{"mean hops (delivered)", f1(stats.Mean(hops))},
			},
		},
		Checks: []Check{
			check("packets actually flow", ratio > 0.05, "delivery ratio %.3f", ratio),
			check("delivery tracks end-to-end connectivity", ratio > e2e*0.3 && ratio < e2e*3+0.2,
				"ratio %.3f vs e2e %.3f", ratio, e2e),
			check("delivered packets are multi-hop", stats.Mean(hops) > 1.5,
				"mean hops %.1f", stats.Mean(hops)),
		},
	}, nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = f3(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// extJ compares three ways to route the same MANET at matched population:
// the paper's deliberate history-driven agents, an AntHocNet-style ant
// colony (the nature-inspired approach of the paper's related work [9],
// [11]), and the distance-vector protocol. It reports result quality and
// traffic side by side.
func extJ(cfg Config) (Report, error) {
	// Deliberate agents (paper).
	agents, err := routeSetting(cfg, "extJ/agents",
		routing.Scenario{Agents: 100, Kind: core.PolicyOldestNode})
	if err != nil {
		return Report{}, err
	}
	agentMoves := agents.Overhead.Moves / cfg.Runs

	// Ant colony, same population, same world trace, same window.
	runs := cfg.Runs
	var antLocal, antE2E []float64
	antMessages := 0
	for r := 0; r < runs; r++ {
		w, err := netgen.Generate(netgen.Routing250(), cfg.Seed)
		if err != nil {
			return Report{}, err
		}
		colony := baseline.NewAntColony(w, 100, 0.02, 64,
			rng.New(seedFor(cfg.Seed, "extJ/ants")+uint64(r)))
		var local, e2e []float64
		for step := 0; step < 300; step++ {
			colony.Step()
			if step >= 150 {
				mm := colony.Measure(step)
				local = append(local, mm.Local)
				e2e = append(e2e, mm.EndToEnd)
			}
			w.Step()
		}
		antLocal = append(antLocal, stats.Mean(local))
		antE2E = append(antE2E, stats.Mean(e2e))
		antMessages += colony.Messages
	}
	antMessages /= runs

	// Distance-vector on the same trace (single deterministic run).
	dvWorld, err := netgen.Generate(netgen.Routing250(), cfg.Seed)
	if err != nil {
		return Report{}, err
	}
	dv := baseline.NewDistanceVector(dvWorld, 3)
	var dvLocal, dvE2E []float64
	for step := 0; step < 300; step++ {
		dv.Step()
		if step >= 150 {
			mm := dv.Measure(step)
			dvLocal = append(dvLocal, mm.Local)
			dvE2E = append(dvE2E, mm.EndToEnd)
		}
		dvWorld.Step()
	}

	antL := stats.Mean(antLocal)
	antE := stats.Mean(antE2E)
	dvL := stats.Mean(dvLocal)
	return Report{
		PaperClaim: "the paper positions its deliberate agents against nature-inspired ant routing ([9],[11]); both should be far cheaper than a full protocol",
		Params:     fmt.Sprintf("250-node MANET, population 100, %d runs (DV is deterministic)", cfg.Runs),
		Table: Table{
			Columns: []string{"router", "connectivity", "end-to-end", "traffic/run"},
			Rows: [][]string{
				{"oldest-node agents (paper)", f3(agents.Mean.Mean), f3(agents.EndToEnd.Mean),
					fmt.Sprintf("%d agent hops", agentMoves)},
				{"ant colony (AntHocNet-style)", f3(antL), f3(antE),
					fmt.Sprintf("%d ant hops", antMessages)},
				{"distance-vector protocol", f3(dvL), f3(stats.Mean(dvE2E)),
					fmt.Sprintf("%d vector msgs", dv.Messages)},
			},
		},
		Checks: []Check{
			check("both agent systems achieve substantial connectivity",
				agents.Mean.Mean > 0.6 && antL > 0.3,
				"agents %.3f, ants %.3f", agents.Mean.Mean, antL),
			check("agent-style traffic is the same order of magnitude",
				antMessages < 4*agentMoves && agentMoves < 4*antMessages,
				"%d vs %d hops", agentMoves, antMessages),
			check("protocol still wins raw connectivity at higher traffic",
				dvL > agents.Mean.Mean && dv.Messages > 5*agentMoves,
				"dv %.3f @ %d msgs", dvL, dv.Messages),
		},
	}, nil
}
