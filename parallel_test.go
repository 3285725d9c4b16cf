// Parallel-replication regression tests: the deterministic replication
// executor must produce bit-identical batch aggregates at every
// RunWorkers value — including under the race detector, which is how CI
// runs this file — and the metrics layer must stay both determinism-
// preserving and concurrency-correct when runs execute concurrently.
package agentmesh_test

import (
	"reflect"
	"runtime"
	"testing"

	agentmesh "repro"
	"repro/internal/parallel"
)

// withBudget grants the shared executor budget n extra goroutines for the
// duration of fn. Without an explicit grant, a 1-CPU CI container would
// degrade every parallel path to sequential and these tests would prove
// nothing.
func withBudget(t *testing.T, n int, fn func()) {
	t.Helper()
	old := parallel.Budget()
	parallel.SetBudget(n)
	defer parallel.SetBudget(old)
	fn()
}

func TestMappingBatchParallelEquivalence(t *testing.T) {
	worldFor := func(int) (*agentmesh.World, error) { return agentmesh.MappingNetwork(1) }
	sc := agentmesh.MappingScenario{
		Agents: 15, Kind: agentmesh.PolicyConscientious, Cooperate: true, Stigmergy: true,
	}
	base, err := agentmesh.RunMappingBatch(worldFor, sc, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.NumCPU(), 6} {
		withBudget(t, 8, func() {
			psc := sc
			psc.RunWorkers = workers
			got, err := agentmesh.RunMappingBatch(worldFor, psc, 4, 7)
			if err != nil {
				t.Fatalf("RunWorkers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("RunWorkers=%d: mapping aggregate differs from sequential", workers)
			}
		})
	}
}

func TestRoutingBatchParallelEquivalence(t *testing.T) {
	worldFor := func(int) (*agentmesh.World, error) { return agentmesh.RoutingNetwork(1) }
	sc := agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true, Steps: 120,
	}
	// The sequential baseline steps every live world inline: with a budget
	// token free, each run would replay a world-stepping helper instead.
	var base agentmesh.RoutingBatch
	var err error
	withBudget(t, 0, func() { base, err = agentmesh.RunRoutingBatch(worldFor, sc, 4, 7) })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.NumCPU(), 6} {
		withBudget(t, 8, func() {
			psc := sc
			psc.RunWorkers = workers
			got, err := agentmesh.RunRoutingBatch(worldFor, psc, 4, 7)
			if err != nil {
				t.Fatalf("RunWorkers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("RunWorkers=%d: routing aggregate differs from sequential", workers)
			}
		})
	}
}

// TestMetricsPreserveParallelDeterminism extends the metrics-layer
// determinism contract to concurrent replication: attaching a registry to
// a parallel batch must not change the aggregate, and the atomic counter
// totals must come out identical whether runs execute sequentially or
// concurrently (counter adds are commutative; gauges and histogram sums
// are exposition-only and carry no such pin).
func TestMetricsPreserveParallelDeterminism(t *testing.T) {
	worldFor := func(int) (*agentmesh.World, error) { return agentmesh.RoutingNetwork(1) }
	sc := agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true, Stigmergy: true,
		Steps: 120,
	}
	plain, err := agentmesh.RunRoutingBatch(worldFor, sc, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	seqReg := agentmesh.NewMetricsRegistry()
	seqSC := sc
	seqSC.Metrics = seqReg
	if _, err := agentmesh.RunRoutingBatch(worldFor, seqSC, 4, 7); err != nil {
		t.Fatal(err)
	}
	withBudget(t, 8, func() {
		parReg := agentmesh.NewMetricsRegistry()
		parSC := sc
		parSC.Metrics = parReg
		parSC.RunWorkers = 4
		instrumented, err := agentmesh.RunRoutingBatch(worldFor, parSC, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, instrumented) {
			t.Error("routing aggregate differs with metrics attached to a parallel batch")
		}
		seq, par := seqReg.Snapshot(nil), parReg.Snapshot(nil)
		for _, name := range []string{
			"routing_runs_total", "routing_steps_total", "routing_moves_total",
			"routing_meetings_total", "routing_deposits_total",
			"routing_route_adoptions_total", "routing_marks_total",
			"world_steps_total",
		} {
			if s, p := seq.Counter(name), par.Counter(name); s != p {
				t.Errorf("counter %s: sequential %d vs parallel %d", name, s, p)
			}
		}
	})
}
