package routing

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/parallel"
	"repro/internal/radio"
)

// emptyStates drops the idle run states, so a test can tell from the
// free list whether its runs used a helper.
func emptyStates() {
	states = parallel.FreeList[runState]{}
}

// idleStates counts the run states on the free list.
func idleStates() int { return states.Len() }

// helpedStates counts the idle run states whose helper has been started.
// startHelper binds a helper's pipe only once a run may start it (no
// tracer, observer or registry, and a token spare), and the runs of these
// tests find the spare token free when they ask for it.
func helpedStates() int {
	idle := make([]*runState, states.Len())
	k := 0
	for i := range idle {
		idle[i] = states.Get()
		if idle[i].helper.pipe.cond.L != nil {
			k++
		}
	}
	for i := len(idle) - 1; i >= 0; i-- {
		states.Put(idle[i])
	}
	return k
}

// runEach runs a RunMany batch's replications one by one and returns
// every Result, so a test can compare them all, series included.
func runEach(t *testing.T, worldFor func(int) (*network.World, error), sc Scenario, runs int, base uint64) []Result {
	t.Helper()
	out, err := parallel.Replicate(1, runs, base, worldFor, func(w *network.World, seed uint64) (Result, error) {
		return Run(w, sc, seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunManyLookaheadEquivalence pins the helpers to the inline engine.
// With the budget spent (parallel.SetBudget(0)) every run steps its world
// and measures it itself. With a token free a live world is stepped ahead
// on a helper goroutine that also measures one step behind, and a replay
// (RunManyCached's TrajectorySource) or static world gets a helper that
// only measures. Every Result must be identical, series included — clean
// and under churn, blackout and partition faults, with and without
// communication and stigmergy.
func TestRunManyLookaheadEquivalence(t *testing.T) {
	const steps, runs = 90, 2
	probe, err := netgen.Generate(testSpec(), 21)
	if err != nil {
		t.Fatal(err)
	}
	static := func(int) (*network.World, error) {
		w, err := netgen.Generate(testSpec(), 21)
		if err != nil {
			return nil, err
		}
		return w.Snapshot().World()
	}
	for _, preset := range []string{"", "churn", "blackout", "partition"} {
		var sched *faults.Schedule
		if preset != "" {
			if sched, err = faults.Preset(preset, probe.N(), probe.Gateways(), steps, 77); err != nil {
				t.Fatal(err)
			}
		}
		worlds := map[string]func(int) (*network.World, error){
			"live":   freshWorld(21),
			"replay": network.NewTrajectorySource(steps, 0, sched, cachedBuild(21)).WorldFor,
			"static": static,
		}
		for _, comm := range []bool{false, true} {
			for _, stig := range []bool{false, true} {
				t.Run(fmt.Sprintf("faults=%q/communicate=%v/stigmergy=%v", preset, comm, stig), func(t *testing.T) {
					sc := Scenario{
						Agents: 25, Kind: core.PolicyOldestNode, Communicate: comm, Stigmergy: stig,
						Steps: steps, MeasureFrom: 30, Faults: sched,
					}
					for _, kind := range []string{"live", "replay", "static"} {
						t.Run("world="+kind, func(t *testing.T) {
							var inline, helped []Result
							emptyStates()
							withBudget(t, 0, func() { inline = runEach(t, worlds[kind], sc, runs, 5) })
							if helpedStates() != 0 {
								t.Fatal("a run took a helper with the budget spent")
							}
							withBudget(t, 1, func() { helped = runEach(t, worlds[kind], sc, runs, 5) })
							if helpedStates() == 0 {
								t.Fatal("no run used a helper; the comparison is vacuous")
							}
							for r := range inline {
								if !reflect.DeepEqual(inline[r], helped[r]) {
									t.Fatalf("run %d differs with the helper:\ninline %+v\nhelper %+v", r, inline[r], helped[r])
								}
							}
						})
					}
				})
			}
		}
	}
}

// counterValues returns a registry's counters by name, leaving out the
// phase timers, whose readings are wall time.
func counterValues(r *metrics.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range r.Snapshot(nil).Counters {
		if !strings.Contains(c.Name, "seconds") {
			out[c.Name] = c.Value
		}
	}
	return out
}

// TestRunLookaheadMetricsMatch pins the counters with the budget spent
// and with a token free. A Scenario.Metrics registry keeps the run inline
// (its phase timers split one goroutine's time). A registry attached to
// the world itself, with none on the Scenario, leaves the helper on: the
// world's counters then count on the helper goroutine, and must come out
// the same.
func TestRunLookaheadMetricsMatch(t *testing.T) {
	const steps = 80
	probe, err := netgen.Generate(testSpec(), 9)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Preset("churn", probe.N(), probe.Gateways(), steps, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Agents: 20, Kind: core.PolicyOldestNode, Communicate: true, Steps: steps, Faults: sched}
	for _, onWorld := range []bool{false, true} {
		t.Run(fmt.Sprintf("registry-on-world=%v", onWorld), func(t *testing.T) {
			counts := func(budget int) map[string]uint64 {
				reg := metrics.NewRegistry()
				worldFor := freshWorld(9)
				rsc := sc
				if onWorld {
					worldFor = func(r int) (*network.World, error) {
						w, err := freshWorld(9)(r)
						if err == nil {
							w.Instrument(reg)
						}
						return w, err
					}
				} else {
					rsc.Metrics = reg
				}
				withBudget(t, budget, func() {
					if _, err := RunMany(worldFor, rsc, 2, 4); err != nil {
						t.Fatal(err)
					}
				})
				return counterValues(reg)
			}
			inline := counts(0)
			emptyStates()
			ahead := counts(1)
			if used := helpedStates() > 0; used != onWorld {
				t.Fatalf("helper used = %v, want %v", used, onWorld)
			}
			if len(inline) == 0 {
				t.Fatal("registry recorded no counters")
			}
			if !reflect.DeepEqual(inline, ahead) {
				t.Errorf("counters differ with the helper:\ninline %v\nahead  %v", inline, ahead)
			}
		})
	}
}

// panicMover drifts until its step budget runs out, then panics.
type panicMover struct{ left int }

func (m *panicMover) Step(p geom.Point) geom.Point {
	if m.left--; m.left < 0 {
		panic("mover broke")
	}
	return geom.Point{X: p.X + 0.01, Y: p.Y}
}

// TestRunLookaheadPanicStopsHelper pins the failure path of a run whose
// world runs ahead: when the live world panics on the helper goroutine,
// the run panics with it on its own goroutine, the helper exits — no
// goroutine is left behind — and the panicked run's state, which may be
// half-updated, is dropped instead of going back on the free list. A run
// that fails before stepping starts no helper at all.
func TestRunLookaheadPanicStopsHelper(t *testing.T) {
	before := runtime.NumGoroutine()
	n := 12
	pos := make([]geom.Point, n)
	radios := make([]radio.Radio, n)
	movers := make([]mobility.Mover, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(2 + 3*i), Y: 10}
		radios[i] = radio.New(4)
		movers[i] = mobility.Static{}
	}
	movers[5] = &panicMover{left: 30}
	w, err := network.NewWorld(network.Config{
		Arena: geom.Square(40), Positions: pos, Radios: radios, Movers: movers,
		Gateways: []network.NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	emptyStates()
	var msg string
	withBudget(t, 1, func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		Run(w, Scenario{Agents: 4, Kind: core.PolicyOldestNode, Steps: 100}, 1)
	})
	if !strings.Contains(msg, "mover broke") {
		t.Fatalf("run ended with %q, want the live world's panic", msg)
	}
	if idle := idleStates(); idle != 0 {
		t.Fatalf("%d idle run states after the panic, want the panicked run's dropped", idle)
	}
	noGateways, err := netgen.Generate(netgen.Spec{N: 20, TargetEdges: 100, ArenaSide: 20, Mobility: netgen.MobilityRandom, MobileFraction: 1, MaxSpeed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	withBudget(t, 1, func() {
		if _, err := Run(noGateways, Scenario{Agents: 2}, 1); err == nil {
			t.Fatal("world without gateways accepted")
		}
	})
	if noGateways.StepCount() != 0 {
		t.Fatal("a run that failed before stepping stepped its world")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain after the runs, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
