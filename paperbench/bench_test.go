package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	agentmesh "repro"
	"repro/internal/rng"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun measures one workload at the self-test size: one set-up, the
// reference batch, and one timed batch per pass.
func tinyRun(t *testing.T, w workload, traced bool, pinned uint64) result {
	t.Helper()
	res, err := measure(w, options{seed: 7, traced: traced, setupReps: 1, pinned: pinned, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// exercised names, per workload, the per-layer metrics of the layers it
// drives; each must read non-zero.
var exercised = map[string][]string{
	"routing_fig8_live": {
		"network.step_us", "network.mobility_us", "network.topology_us", "network.links_changed_per_step",
		"netgen.generate_ms", "core.decide_us", "core.move_us", "core.moves_per_step",
		"routing.deposit_us", "routing.deposits_per_step", "routing.measure_us",
	},
	"mapping_fig5_super40": {
		"knowledge.exchange_us", "knowledge.records_merged_per_meeting",
		"mapping.learn_us", "mapping.measure_us", "mapping.steps_per_run", "core.decide_us", "core.meetings_per_step",
	},
	"routing_fig11_churn_cached": {
		"network.replay_step_us", "network.record_ms", "core.meet_us", "core.meetings_per_step",
		"routing.deposit_us", "routing.measure_us", "routing.measure_resyncs_per_run", "faults.routes_purged_per_run",
	},
	"binlog_fig8_record_verify": {
		"trace.emit_us_per_step", "trace.bytes_per_event", "trace.encode_mb_per_s",
		"replay.verify_ms", "replay.decode_mb_per_s", "network.step_us", "routing.deposit_us",
	},
}

func checkMetrics(t *testing.T, where string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", where, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", where, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", where, m.Name, g.Unit, m.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, ok := lookup(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			plain := tinyRun(t, w, false, 0)
			if !plain.Correct || plain.Failed != 0 || plain.Attempted < 1 {
				t.Errorf("untraced pass: correct=%v failed=%d attempted=%d", plain.Correct, plain.Failed, plain.Attempted)
			}
			checkMetrics(t, "untraced", plain.Metrics, s.EndToEnd)
			for _, m := range s.EndToEnd {
				if plain.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v; every one must be positive", m.Name, plain.Metrics[m.Name].Value)
				}
			}

			traced := tinyRun(t, w, true, 0)
			if !traced.Correct {
				t.Errorf("traced pass: failed=%d of %d", traced.Failed, traced.Attempted)
			}
			checkMetrics(t, "traced", traced.Metrics, s.PerLayer)
			for _, name := range exercised[w.name] {
				if traced.Metrics[name].Value == 0 {
					t.Errorf("layer metric %s reads 0 on a workload that exercises it", name)
				}
			}
			// Shares are self times of disjoint phases, so they cover at
			// most the traced wall time, up to clock granularity.
			if r := traced.Metrics["residual_share"].Value; r < -0.02 || r > 1 {
				t.Errorf("residual_share = %v", r)
			}
		})
	}
}

func TestMetricNames(t *testing.T) {
	s := loadSpec(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if !valid.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, valid)
			}
			if seen[m.Name] {
				t.Errorf("metric name %q used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range s.Workloads {
		if !valid.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %s", w.Name, valid)
		}
	}
}

func TestWrongPinnedDigestFails(t *testing.T) {
	w, _ := lookup("routing_fig8_live")
	res := tinyRun(t, w, false, 12345)
	if res.Correct || res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
		t.Fatalf("a wrong pinned digest went unnoticed: correct=%v failed=%d ok_frac=%v",
			res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

// The cached workload builds its trajectory source in set-up and replays
// it through RunRoutingBatch; that must be bit-identical to the public
// RunRoutingBatchCached, which records inside the batch.
func TestCachedBatchMatchesHarness(t *testing.T) {
	in, err := setupFig11ChurnCached(7, true)
	if err != nil {
		t.Fatal(err)
	}
	x := in.(*fig11ChurnCached)
	fw := x.worlds[0]
	const runs = 2
	base := rng.DeriveSeed(x.base, 0)
	replayed, err := agentmesh.RunRoutingBatch(fw.src.WorldFor, fw.sc, runs, base)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := agentmesh.RunRoutingBatchCached(func() (*World, error) {
		return agentmesh.RoutingNetwork(fw.seed)
	}, fw.sc, runs, base)
	if err != nil {
		t.Fatal(err)
	}
	if digestRouting(replayed) != digestRouting(cached) {
		t.Fatal("set-up trajectory replay diverges from RunRoutingBatchCached")
	}
}
