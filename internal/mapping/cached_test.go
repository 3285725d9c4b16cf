package mapping

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/network"
)

// cachedBuild adapts freshFactory to RunManyCached's record contract:
// one freshly generated live world for the recording pass.
func cachedBuild() func() (*network.World, error) {
	f := freshFactory()
	return func() (*network.World, error) { return f(0) }
}

// TestRunManyCachedMatchesLive is the tentpole acceptance gate at the
// mapping-harness level: a record-once/replay-many batch must produce an
// aggregate bit-identical to live per-run stepping, clean and under node
// churn (which exercises the stranded-respawn path through the replayed
// fault epochs), at every RunWorkers in {1,2,4}. The grid also sets the
// deprecated ShardWorkers field to {1,2,4}: callers still set it, and the
// aggregate must not depend on it.
func TestRunManyCachedMatchesLive(t *testing.T) {
	const runs, maxSteps = 3, 2000
	w := smallWorld(t)
	churn, err := faults.Preset("churn", w.N(), w.Gateways(), 400, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		// Clean: a full cooperating team on the bare static world.
		{"clean", Scenario{
			Agents: 8, Kind: core.PolicyConscientious, Cooperate: true,
			MaxSteps: maxSteps,
		}},
		// Churn: a slow two-agent team so the runs span the whole fault
		// schedule instead of finishing before the first death wave.
		{"churn", Scenario{
			Agents: 2, Kind: core.PolicyRandom, Cooperate: true,
			MaxSteps: maxSteps, Faults: churn,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			base, err := RunMany(freshFactory(), sc, runs, 7)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Faults != nil && base.Stranded == 0 {
				t.Fatal("churn never stranded an agent; the faulted case is vacuous")
			}
			for _, rw := range []int{1, 2, 4} {
				for _, sw := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("runworkers=%d/shardworkers=%d", rw, sw), func(t *testing.T) {
						withBudget(t, 8, func() {
							csc := sc
							csc.RunWorkers, csc.ShardWorkers = rw, sw
							got, err := RunManyCached(cachedBuild(), csc, runs, 7)
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
	sc := Scenario{Agents: 8, Kind: core.PolicyConscientious, Cooperate: true}
	base, err := RunMany(freshFactory(), sc, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunManyCached(cachedBuild(), sc, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Error("single-run cached aggregate differs from RunMany")
	}
}
