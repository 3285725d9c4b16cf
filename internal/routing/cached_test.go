package routing

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/network"
)

// cachedBuild adapts the test world generator to RunManyCached's record
// contract: one freshly generated live world for the recording pass.
func cachedBuild(seed uint64) func() (*network.World, error) {
	return func() (*network.World, error) { return netgen.Generate(testSpec(), seed) }
}

// TestRunManyCachedMatchesLive is the tentpole acceptance gate at the
// routing-harness level: a record-once/replay-many batch must produce an
// aggregate bit-identical to live, inline per-run stepping, clean and under the
// blackout preset, at every RunWorkers in {1,2,4}. The grid also sets the
// deprecated ShardWorkers field to {1,2,4}: callers still set it, and the
// aggregate must not depend on it.
func TestRunManyCachedMatchesLive(t *testing.T) {
	const steps, runs = 120, 3
	for _, faulted := range []bool{false, true} {
		name := "clean"
		if faulted {
			name = "blackout"
		}
		t.Run(name, func(t *testing.T) {
			sc := Scenario{
				Agents: 30, Kind: core.PolicyOldestNode,
				Communicate: true, Steps: steps, MeasureFrom: 40,
			}
			if faulted {
				sc.Faults = testFaultSchedule(t, steps)
			}
			// The live side steps every world inline: with a budget token
			// free, a live run would replay a helper's recording instead.
			var base Aggregate
			var err error
			withBudget(t, 0, func() { base, err = RunMany(freshWorld(11), sc, runs, 31) })
			if err != nil {
				t.Fatal(err)
			}
			if faulted && base.Recovered+base.Censored == 0 {
				t.Fatal("fault schedule never dented connectivity; the faulted case is vacuous")
			}
			for _, rw := range []int{1, 2, 4} {
				for _, sw := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("runworkers=%d/shardworkers=%d", rw, sw), func(t *testing.T) {
						withBudget(t, 8, func() {
							csc := sc
							csc.RunWorkers, csc.ShardWorkers = rw, sw
							got, err := RunManyCached(cachedBuild(11), csc, runs, 31)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(base, got) {
								t.Error("cached aggregate differs from live sequential baseline")
							}
						})
					})
				}
			}
		})
	}
}

// TestRunManyCachedSingleRunFallback pins the runs<=1 path: with nothing
// to amortize, RunManyCached must behave exactly like RunMany on one
// freshly built world rather than paying a recording pass.
func TestRunManyCachedSingleRunFallback(t *testing.T) {
	sc := Scenario{Agents: 20, Kind: core.PolicyOldestNode, Steps: 60}
	base, err := RunMany(freshWorld(11), sc, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunManyCached(cachedBuild(11), sc, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Error("single-run cached aggregate differs from RunMany")
	}
}

// TestRunManyCachedBuildErrorPropagates pins error plumbing through the
// sync.Once record phase: every run observes the one build failure.
func TestRunManyCachedBuildErrorPropagates(t *testing.T) {
	build := func() (*network.World, error) { return nil, fmt.Errorf("no world today") }
	sc := Scenario{Agents: 10, Kind: core.PolicyOldestNode, Steps: 60}
	if _, err := RunManyCached(build, sc, 3, 5); err == nil {
		t.Fatal("build error swallowed by the cached source")
	}
}
