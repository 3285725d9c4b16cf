package routing

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// withBudget grants the shared executor budget n extra goroutines for the
// duration of fn — without it, the 1-CPU CI containers would silently
// serialise every "parallel" path and the equivalence tests would prove
// nothing.
func withBudget(t *testing.T, n int, fn func()) {
	t.Helper()
	old := parallel.Budget()
	parallel.SetBudget(n)
	defer parallel.SetBudget(old)
	fn()
}

// TestRunManyParallelEquivalence pins the determinism contract of the
// replication executor: the aggregate of a RunMany batch is bit-identical
// at every RunWorkers value, because each run derives its seed from its
// index alone and the reduction walks result slots in run order.
func TestRunManyParallelEquivalence(t *testing.T) {
	sc := Scenario{Agents: 25, Kind: core.PolicyOldestNode, Communicate: true, Steps: 100}
	const runs, seed = 5, 99
	base, err := RunMany(freshWorld(42), sc, runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, runtime.NumCPU(), runs + 3} {
		withBudget(t, 8, func() {
			psc := sc
			psc.RunWorkers = workers
			got, err := RunMany(freshWorld(42), psc, runs, seed)
			if err != nil {
				t.Fatalf("RunWorkers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("RunWorkers=%d: aggregate differs from sequential", workers)
			}
		})
	}
}

// TestRunManyParallelSharedWorldRejected pins the guard: a worldFor that
// returns one shared *World is fine sequentially but must fail loudly
// under parallel replication (worlds are stepped, so sharing is a race).
func TestRunManyParallelSharedWorldRejected(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	shared := func(int) (*network.World, error) { return w, nil }
	sc := Scenario{Agents: 10, Kind: core.PolicyOldestNode, Steps: 40}
	if _, err := RunMany(shared, sc, 3, 7); err != nil {
		t.Fatalf("sequential shared world rejected: %v", err)
	}
	withBudget(t, 4, func() {
		sc.RunWorkers = 4
		_, err := RunMany(shared, sc, 3, 7)
		if err == nil || !strings.Contains(err.Error(), "fresh world per run") {
			t.Fatalf("parallel shared world not rejected, err = %v", err)
		}
	})
}

// TestRunManyTracerForcesSequential pins that attaching a shared-sink
// Tracer downgrades RunWorkers to sequential execution: the shared static
// world passes the guard (which only engages in parallel mode), and the
// aggregate matches the plain sequential one.
func TestRunManyTracerForcesSequential(t *testing.T) {
	sc := Scenario{Agents: 10, Kind: core.PolicyOldestNode, Steps: 40}
	base, err := RunMany(freshWorld(42), sc, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	withBudget(t, 4, func() {
		traced := sc
		traced.RunWorkers = 4
		traced.Tracer = trace.NewCounter()
		got, err := RunMany(freshWorld(42), traced, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Error("traced batch differs from sequential baseline")
		}
	})
}

// TestRunReusesPooledState pins the zero-allocation property of the
// kept per-worker scratch: after a warm-up run has put its state on the
// free list, further runs must not rebuild tables, groupers, or the
// decided-move slice from scratch. Whole-run allocations (agents, result
// curves) remain, so the budget is a coarse ceiling calibrated against the
// warm-up run rather than zero.
func TestRunReusesPooledState(t *testing.T) {
	sc := Scenario{Agents: 10, Kind: core.PolicyOldestNode, Steps: 40}
	w, err := netgen.Generate(testSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	n := w.N()
	emptyStates()
	if _, err := Run(w, sc, 7); err != nil {
		t.Fatal(err)
	}
	st := states.Get()
	tablesCap, nextCap := cap(st.tables.rows), cap(st.next)
	if tablesCap < n {
		t.Fatalf("kept tables cap at %d rows, want >= %d", tablesCap, n)
	}
	if nextCap < sc.Agents {
		t.Fatalf("kept next slice caps at %d, want >= %d", nextCap, sc.Agents)
	}
	// A second run on an equally sized world must reuse that storage:
	// every table survives reset with entries dropped and evictions
	// zeroed, indistinguishable from fresh tables.
	st.tables.Update(0, Entry{Gateway: 1, NextHop: 2, Hops: 3, Updated: 4})
	st.reset(n, sc.Agents, 1)
	if got := len(st.tables.Entries(0)); got != 0 {
		t.Fatalf("reset table still holds %d entries", got)
	}
	if got := st.tables.Evictions(); got != 0 {
		t.Fatalf("reset tables report %d evictions", got)
	}
	if cap(st.tables.rows) != tablesCap {
		t.Fatalf("reset reallocated table storage: cap %d → %d", tablesCap, cap(st.tables.rows))
	}
	states.Put(st)
}

// TestRunStateSurvivesCollection pins the free list's point: a garbage
// collection does not empty it, so a run after one allocates no more than
// a warm run does — tables, meter mirrors and helper storage are not
// grown afresh. It collects twice, as a sync.Pool would keep one
// collection's worth in its victim cache. Runs replay one tape, whose
// replay worlds all cost the same, with the helper off and on.
func TestRunStateSurvivesCollection(t *testing.T) {
	const steps = 60
	src := network.NewTrajectorySource(steps, 0, nil, cachedBuild(3))
	sc := Scenario{Agents: 20, Kind: core.PolicyOldestNode, Communicate: true, Steps: steps}
	run := func() {
		w, err := src.WorldFor(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(w, sc, 5); err != nil {
			t.Fatal(err)
		}
	}
	for _, budget := range []int{0, 1} {
		withBudget(t, budget, func() {
			emptyStates()
			for i := 0; i < 3; i++ {
				run()
			}
			warm := testing.AllocsPerRun(5, run)
			collect := func() {
				runtime.GC()
				runtime.GC()
			}
			// The collections' own allocations (the runtime's cleanups)
			// are not the run's.
			gc := testing.AllocsPerRun(5, collect)
			collected := testing.AllocsPerRun(5, func() {
				collect()
				run()
			})
			if collected > warm+gc {
				t.Errorf("budget %d: a run after a collection allocates %.1f times, a warm run %.1f (the collections %.1f)", budget, collected, warm, gc)
			}
		})
	}
}
