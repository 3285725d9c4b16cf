package mapping

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/parallel"
)

// withBudget grants the shared executor budget n extra goroutines for the
// duration of fn, so parallel paths engage even on 1-CPU CI containers.
func withBudget(t *testing.T, n int, fn func()) {
	t.Helper()
	old := parallel.Budget()
	parallel.SetBudget(n)
	defer parallel.SetBudget(old)
	fn()
}

// freshFactory regenerates an identical world per call — what parallel
// replication requires instead of the shared staticFactory world.
func freshFactory() func(int) (*network.World, error) {
	return func(int) (*network.World, error) {
		return netgen.Generate(smallSpec(), 1234)
	}
}

// TestRunManyParallelEquivalence pins the determinism contract of the
// replication executor on the mapping scenario: bit-identical aggregates
// at every RunWorkers value, also when concurrent workers recycle pooled
// mixed teams and footprint boards.
func TestRunManyParallelEquivalence(t *testing.T) {
	for _, sc := range []Scenario{
		{Agents: 8, Kind: core.PolicyConscientious, Cooperate: true},
		{Team: []TeamSpec{
			{Kind: core.PolicySuperConscientious, Count: 5},
			{Kind: core.PolicyConscientious, Count: 3},
		}, Cooperate: true, Stigmergy: true},
	} {
		const runs, seed = 5, 99
		base, err := RunMany(freshFactory(), sc, runs, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, runtime.NumCPU(), runs + 3} {
			withBudget(t, 8, func() {
				psc := sc
				psc.RunWorkers = workers
				got, err := RunMany(freshFactory(), psc, runs, seed)
				if err != nil {
					t.Fatalf("RunWorkers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(base, got) {
					t.Errorf("stigmergy=%v RunWorkers=%d: aggregate differs from sequential", sc.Stigmergy, workers)
				}
			})
		}
	}
}

// TestRunManyParallelSharedWorldRejected pins the guard: the shared
// static world the sequential path allows must be rejected loudly under
// parallel replication (even static worlds are stepped and instrumented).
func TestRunManyParallelSharedWorldRejected(t *testing.T) {
	w := smallWorld(t)
	sc := Scenario{Agents: 8, Kind: core.PolicyConscientious, Cooperate: true}
	if _, err := RunMany(staticFactory(w), sc, 3, 7); err != nil {
		t.Fatalf("sequential shared world rejected: %v", err)
	}
	withBudget(t, 4, func() {
		sc.RunWorkers = 4
		_, err := RunMany(staticFactory(w), sc, 3, 7)
		if err == nil || !strings.Contains(err.Error(), "fresh world per run") {
			t.Fatalf("parallel shared world not rejected, err = %v", err)
		}
	})
}

// TestFreshWorldMatchesShared pins the fact the parallel call sites rely
// on: regenerating a static world from the same spec and seed yields the
// same results as sharing one world across sequential runs.
func TestFreshWorldMatchesShared(t *testing.T) {
	sc := Scenario{Agents: 8, Kind: core.PolicyConscientious, Cooperate: true}
	shared, err := RunMany(staticFactory(smallWorld(t)), sc, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunMany(freshFactory(), sc, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Error("regenerated static worlds give different results than a shared world")
	}
}
