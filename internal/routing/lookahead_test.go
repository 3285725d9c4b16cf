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
	"repro/internal/radio"
)

// emptyLookaheads drops the idle helpers, so a test can tell from the free
// list whether its runs used one.
func emptyLookaheads() {
	lookaheads.Lock()
	lookaheads.free = nil
	lookaheads.Unlock()
}

func idleLookaheads() int {
	lookaheads.Lock()
	defer lookaheads.Unlock()
	return len(lookaheads.free)
}

// TestRunManyLookaheadEquivalence pins the world-stepping helper to the
// inline engine: with the budget spent (parallel.SetBudget(0)) every run
// steps its live world itself, with a token free every run replays the
// world a helper goroutine steps, and the aggregates must be identical —
// clean and under churn, blackout and partition faults, with and without
// communication and stigmergy.
func TestRunManyLookaheadEquivalence(t *testing.T) {
	const steps, runs = 90, 2
	probe, err := netgen.Generate(testSpec(), 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, preset := range []string{"", "churn", "blackout", "partition"} {
		var sched *faults.Schedule
		if preset != "" {
			if sched, err = faults.Preset(preset, probe.N(), probe.Gateways(), steps, 77); err != nil {
				t.Fatal(err)
			}
		}
		for _, comm := range []bool{false, true} {
			for _, stig := range []bool{false, true} {
				t.Run(fmt.Sprintf("faults=%q/communicate=%v/stigmergy=%v", preset, comm, stig), func(t *testing.T) {
					sc := Scenario{
						Agents: 25, Kind: core.PolicyOldestNode, Communicate: comm, Stigmergy: stig,
						Steps: steps, MeasureFrom: 30, Faults: sched,
					}
					var inline, ahead Aggregate
					withBudget(t, 0, func() {
						if inline, err = RunMany(freshWorld(21), sc, runs, 5); err != nil {
							t.Fatal(err)
						}
					})
					emptyLookaheads()
					withBudget(t, 1, func() {
						if ahead, err = RunMany(freshWorld(21), sc, runs, 5); err != nil {
							t.Fatal(err)
						}
					})
					if idleLookaheads() == 0 {
						t.Fatal("no run used a world-stepping helper; the comparison is vacuous")
					}
					if !reflect.DeepEqual(inline, ahead) {
						t.Error("aggregate with the world-stepping helper differs from inline stepping")
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
			emptyLookaheads()
			ahead := counts(1)
			if used := idleLookaheads() > 0; used != onWorld {
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
// the run panics with it on its own goroutine, and by the time the panic
// reaches the caller the helper has exited and is back on the free list —
// no goroutine is left behind. A run that fails before stepping starts no
// helper at all.
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
	emptyLookaheads()
	var msg string
	withBudget(t, 1, func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		Run(w, Scenario{Agents: 4, Kind: core.PolicyOldestNode, Steps: 100}, 1)
	})
	if !strings.Contains(msg, "mover broke") {
		t.Fatalf("run ended with %q, want the live world's panic", msg)
	}
	if idleLookaheads() != 1 {
		t.Fatalf("%d idle helpers after the panic, want the one the run used", idleLookaheads())
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
