package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/routing"
)

// extH ablates the mobility model. The paper replaces Kramer et al.'s
// constant-velocity nodes with random velocities "to be closer to real
// networks"; this experiment quantifies how much the choice matters by
// also including the classic random-waypoint model.
func extH(cfg Config) (Report, error) {
	models := []struct {
		name string
		kind netgen.MobilityKind
	}{
		{"constant velocity (Kramer)", netgen.MobilityConstant},
		{"random velocity (paper)", netgen.MobilityRandom},
		{"random waypoint", netgen.MobilityWaypoint},
	}
	table := Table{Columns: connectivityColumns}
	var curves []Series
	means := make(map[string]float64, len(models))
	for _, m := range models {
		spec := netgen.Routing250()
		spec.Mobility = m.kind
		build := func() (*network.World, error) {
			return netgen.Generate(spec, cfg.Seed)
		}
		agg, err := routing.RunManyCached(build, routing.Scenario{
			Agents: 100, Kind: core.PolicyOldestNode,
			RunWorkers: cfg.RunWorkers,
		}, cfg.Runs, seedFor(cfg.Seed, "extH/"+m.name))
		if err != nil {
			return Report{}, err
		}
		means[m.name] = agg.Mean.Mean
		table.Rows = append(table.Rows, connRow(m.name, agg))
		curves = append(curves, Series{Name: m.name, Values: agg.AvgSeries})
	}
	lo, hi := 1.0, 0.0
	for _, v := range means {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return Report{
		PaperClaim: "the paper swaps constant velocities for random ones to be 'closer to real networks'; agent routing should be robust to the mobility model",
		Params:     fmt.Sprintf("250-node MANET, 100 oldest-node agents, 3 mobility models, %d runs", cfg.Runs),
		Table:      table,
		Series:     curves,
		Checks: []Check{
			check("agents work under every mobility model", lo > 0.5,
				"worst model connectivity %.3f", lo),
			check("mobility model shifts results only moderately", hi-lo < 0.2,
				"spread %.3f (%.3f..%.3f)", hi-lo, lo, hi),
		},
	}, nil
}

// extI ablates the paper's core environment change: heterogeneous radio
// ranges (asymmetric, directed links) versus Minar's identical ranges
// (bidirectional links). The paper argues its environment is harder and
// more realistic; this measures exactly what that realism costs.
func extI(cfg Config) (Report, error) {
	type setting struct {
		name   string
		spread float64
	}
	settings := []setting{
		{"identical ranges (Minar)", 0},
		{"±10% ranges", 0.10},
		{"±25% ranges (paper)", 0.25},
		{"±40% ranges", 0.40},
	}
	table := Table{Columns: []string{"environment", "mapping finish", "routing connectivity", "asymmetric links"}}
	var mapMeans, routeMeans []float64
	for _, st := range settings {
		// Mapping: same scale as Fig 3 (15 cooperating conscientious).
		mapSpec := netgen.Mapping300()
		mapSpec.RangeSpread = st.spread
		w, err := netgen.Generate(mapSpec, cfg.Seed)
		if err != nil {
			return Report{}, err
		}
		asym := asymmetryFraction(w)
		static := staticWorldFor(cfg, w)
		mapAgg, err := mapping.RunMany(static, mapping.Scenario{
			Agents: 15, Kind: core.PolicyConscientious, Cooperate: true,
			MaxSteps: 200000, RunWorkers: cfg.RunWorkers,
		}, cfg.Runs, seedFor(cfg.Seed, "extI/map/"+st.name))
		if err != nil {
			return Report{}, err
		}
		// Routing: same scale as Fig 7.
		routeSpec := netgen.Routing250()
		routeSpec.RangeSpread = st.spread
		build := func() (*network.World, error) {
			return netgen.Generate(routeSpec, cfg.Seed)
		}
		routeAgg, err := routing.RunManyCached(build, routing.Scenario{
			Agents: 100, Kind: core.PolicyOldestNode,
			RunWorkers: cfg.RunWorkers,
		}, cfg.Runs, seedFor(cfg.Seed, "extI/route/"+st.name))
		if err != nil {
			return Report{}, err
		}
		mapMeans = append(mapMeans, mapAgg.Finish.Mean)
		routeMeans = append(routeMeans, routeAgg.Mean.Mean)
		table.Rows = append(table.Rows, []string{
			st.name,
			f1(mapAgg.Finish.Mean) + "±" + f1(mapAgg.Finish.CI),
			f3(routeAgg.Mean.Mean) + "±" + f3(routeAgg.Mean.CI),
			f3(asym),
		})
	}
	return Report{
		PaperClaim: "the paper's heterogeneous ranges create one-way links and a harder, more realistic environment than Minar's identical ranges",
		Params:     fmt.Sprintf("range-spread ablation on both scenarios, %d runs each", cfg.Runs),
		Table:      table,
		Series: []Series{
			{Name: "mapping-finish", Values: mapMeans},
			{Name: "routing-connectivity", Values: routeMeans},
		},
		Checks: []Check{
			check("identical ranges have no asymmetric links", firstAsym(table) == "0.000",
				"asymmetry column: %s", firstAsym(table)),
			check("agents survive the paper's harder environment",
				routeMeans[2] > 0.7 && mapMeans[2] > 0,
				"paper setting: finish %.0f, connectivity %.3f", mapMeans[2], routeMeans[2]),
		},
	}, nil
}

// asymmetryFraction returns the fraction of links without a reverse link.
func asymmetryFraction(w *network.World) float64 {
	g := w.Topology()
	total, oneWay := 0, 0
	for u := 0; u < w.N(); u++ {
		for _, v := range g.Out(network.NodeID(u)) {
			total++
			if !g.HasEdge(v, network.NodeID(u)) {
				oneWay++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(oneWay) / float64(total)
}

func firstAsym(t Table) string {
	if len(t.Rows) == 0 || len(t.Rows[0]) < 4 {
		return ""
	}
	return t.Rows[0][3]
}

// extK ablates node placement. The paper assumes nodes are "distributed
// in a two dimension environment randomly"; real deployments cluster
// around buildings or follow planned grids. This measures how much the
// conclusions depend on the uniform-placement assumption.
func extK(cfg Config) (Report, error) {
	layouts := []struct {
		name string
		kind netgen.PlacementKind
	}{
		{"uniform (paper)", netgen.PlacementUniform},
		{"clustered", netgen.PlacementClustered},
		{"jittered grid", netgen.PlacementGrid},
	}
	table := Table{Columns: []string{"placement", "mapping finish", "routing connectivity", "routing e2e"}}
	var routeMeans []float64
	for _, l := range layouts {
		// Full mapping needs a strongly connected network. At the paper's
		// edge budget, clustered layouts essentially never are (the
		// binary-searched radio range saturates on intra-cluster links
		// before the clusters interconnect) — which is a finding in
		// itself, reported as n/a rather than forced.
		mapCell := "n/a (not strongly connected)"
		mapSpec := netgen.Mapping300()
		mapSpec.Placement = l.kind
		mapSpec.MaxTries = 64
		if w, err := netgen.Generate(mapSpec, cfg.Seed); err == nil {
			static := staticWorldFor(cfg, w)
			mapAgg, err := mapping.RunMany(static, mapping.Scenario{
				Agents: 15, Kind: core.PolicyConscientious, Cooperate: true,
				MaxSteps: 200000, RunWorkers: cfg.RunWorkers,
			}, cfg.Runs, seedFor(cfg.Seed, "extK/map/"+l.name))
			if err != nil {
				return Report{}, err
			}
			mapCell = f1(mapAgg.Finish.Mean) + "±" + f1(mapAgg.Finish.CI)
		}
		routeSpec := netgen.Routing250()
		routeSpec.Placement = l.kind
		build := func() (*network.World, error) {
			return netgen.Generate(routeSpec, cfg.Seed)
		}
		routeAgg, err := routing.RunManyCached(build, routing.Scenario{
			Agents: 100, Kind: core.PolicyOldestNode,
			RunWorkers: cfg.RunWorkers,
		}, cfg.Runs, seedFor(cfg.Seed, "extK/route/"+l.name))
		if err != nil {
			return Report{}, err
		}
		routeMeans = append(routeMeans, routeAgg.Mean.Mean)
		table.Rows = append(table.Rows, []string{
			l.name,
			mapCell,
			f3(routeAgg.Mean.Mean) + "±" + f3(routeAgg.Mean.CI),
			f3(routeAgg.EndToEnd.Mean),
		})
	}
	lo, hi := routeMeans[0], routeMeans[0]
	for _, v := range routeMeans {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return Report{
		PaperClaim: "the paper assumes uniformly random placement; conclusions should not be an artefact of it",
		Params:     fmt.Sprintf("placement ablation on both scenarios, %d runs each", cfg.Runs),
		Table:      table,
		Checks: []Check{
			check("agents route every layout", lo > 0.5, "worst layout connectivity %.3f", lo),
			check("placement shifts connectivity only moderately", hi-lo < 0.25,
				"spread %.3f (%.3f..%.3f)", hi-lo, lo, hi),
		},
	}, nil
}
