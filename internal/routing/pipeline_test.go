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
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/rng"
)

// changeLogUniverse is one world and its tables, driven by a seeded stream
// of table writes, harness-style fault purges and skipped measures. Two
// universes built from the same seed evolve identically, so one can be
// measured inline while the other's change records are logged.
type changeLogUniverse struct {
	w     *network.World
	ts    *Tables
	s     *rng.Stream
	epoch int
}

func newChangeLogUniverse(t *testing.T, sched *faults.Schedule, seed uint64) *changeLogUniverse {
	t.Helper()
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaults(sched)
	return &changeLogUniverse{w: w, ts: NewTables(w.N(), 3), s: rng.New(seed)}
}

// writes applies one step's table writes: deposits, the harness's purge of
// routes through dead next hops and out-of-service gateways when a fault
// epoch advanced, and now and then an arbitrary purge.
func (u *changeLogUniverse) writes(step int) {
	w, ts, s := u.w, u.ts, u.s
	n, gws := w.N(), w.Gateways()
	if ep := w.FaultEpoch(); ep != u.epoch {
		u.epoch = ep
		for v := 0; v < n; v++ {
			ts.DropIf(NodeID(v), func(e Entry) bool { return !w.Alive(e.NextHop) || !w.IsGateway(e.Gateway) })
		}
	}
	if len(gws) == 0 {
		return
	}
	for i := s.Intn(40); i > 0; i-- {
		ts.Update(NodeID(s.Intn(n)), Entry{
			Gateway: gws[s.Intn(len(gws))], NextHop: NodeID(s.Intn(n)),
			Hops: 1 + s.Intn(9), Updated: step - s.Intn(4),
		})
	}
	if s.Intn(10) == 0 {
		hops := 1 + s.Intn(9)
		for v := 0; v < n; v++ {
			ts.DropIf(NodeID(v), func(e Entry) bool { return e.Hops >= hops })
		}
	}
}

// TestMeterFedFromChangeLog pins the pipelined Meter's input: a Meter fed
// nothing but logged change records, consumed after the run is over —
// the world stepped on and the tables written over — must report what an
// inline Meter and the scratch referee report at every measured step,
// under every fault workload, with fault-epoch and skipped-step resyncs
// included, and resync exactly as often.
func TestMeterFedFromChangeLog(t *testing.T) {
	const steps = 120
	for name, sched := range meterSchedules(t, steps) {
		t.Run(name, func(t *testing.T) {
			inline := newChangeLogUniverse(t, sched, 31)
			logged := newChangeLogUniverse(t, sched, 31)
			meter := NewMeter(inline.w, inline.ts)
			var src changeSource
			src.reset(logged.w, logged.ts)
			var scratch Scratch
			var log []*loggedRecord
			var want, ref []Measurement
			skips := rng.New(5)
			for step := 0; step < steps; step++ {
				inline.writes(step)
				logged.writes(step)
				// Now and then a step goes unmeasured: its writes and
				// edge edits fall to the next record, a resync.
				if skips.Intn(9) != 0 {
					want = append(want, meter.Measure(step))
					ref = append(ref, scratchQuad(inline.w, inline.ts, &scratch, step))
					lr := new(loggedRecord)
					lr.capture(&src, step)
					log = append(log, lr)
				}
				inline.w.Step()
				logged.w.Step()
			}
			var fed Meter
			for i, lr := range log {
				if got := fed.consume(&lr.changeRecord); got != want[i] || got != ref[i] {
					t.Fatalf("record %d (step %d, full=%v): log-fed %+v, inline %+v, scratch %+v",
						i, lr.step, lr.full, got, want[i], ref[i])
				}
			}
			if fed.Resyncs() != meter.Resyncs() {
				t.Fatalf("log-fed meter resynced %d times, inline %d", fed.Resyncs(), meter.Resyncs())
			}
			if fed.Resyncs() < 2 || fed.Resyncs() >= len(log) {
				t.Fatalf("%d resyncs over %d records: full and delta records must both occur", fed.Resyncs(), len(log))
			}
		})
	}
}

// TestMeasurePipeSharesMeasuring pins the pipe's hand-over: a helper that
// falls pipeHelp records behind has the run goroutine measure the oldest
// one, so with no helper at all the log never fills, and a helper started
// late drains the rest. Whichever goroutine measures a step, the series
// must equal an inline Meter's, fault epochs and skipped steps included.
func TestMeasurePipeSharesMeasuring(t *testing.T) {
	const steps = 90
	sched := meterSchedules(t, steps)["preset-churn"]
	inline := newChangeLogUniverse(t, sched, 17)
	piped := newChangeLogUniverse(t, sched, 17)
	meter := NewMeter(inline.w, inline.ts)
	var pm Meter
	pm.Reset(piped.w, piped.ts)
	out := series{make([]float64, steps), make([]float64, steps), make([]float64, steps), make([]float64, steps)}
	want := series{make([]float64, steps), make([]float64, steps), make([]float64, steps), make([]float64, steps)}
	var p measurePipe
	p.reset(&pm, out)
	skips := rng.New(3)
	for step := 0; step < steps; step++ {
		inline.writes(step)
		piped.writes(step)
		if skips.Intn(7) != 0 {
			want.set(step, meter.Measure(step))
			p.capture(step)
			if pending := p.captured - p.measured; pending >= pipeHelp {
				t.Fatalf("step %d: %d records wait with no helper running, want fewer than %d", step, pending, pipeHelp)
			}
		}
		inline.w.Step()
		piped.w.Step()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Drain()
	}()
	p.join()
	<-done
	if !reflect.DeepEqual(out, want) {
		t.Fatal("series measured through the pipe differ from the inline Meter's")
	}
	if pm.Resyncs() != meter.Resyncs() || pm.Resyncs() < 2 {
		t.Fatalf("pipe meter resynced %d times, inline %d; want equal and more than once", pm.Resyncs(), meter.Resyncs())
	}
}

// TestRunHelperPanicMeasureOnly pins the failure path of a run whose
// helper only measures: a replay world whose tape ends before the run
// does panics on the run goroutine mid-run, the helper exits, and the
// panicked run's state is dropped. (TestRunLookaheadPanicStopsHelper pins
// the same for the helper that also steps a live world.)
func TestRunHelperPanicMeasureOnly(t *testing.T) {
	before := runtime.NumGoroutine()
	traj, err := network.RecordTrajectory(mustWorld(t), 40)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traj.World()
	if err != nil {
		t.Fatal(err)
	}
	emptyStates()
	var msg string
	withBudget(t, 1, func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		Run(w, Scenario{Agents: 10, Kind: core.PolicyOldestNode, Communicate: true, Steps: 100}, 1)
	})
	if !strings.Contains(msg, "trajectory exhausted") {
		t.Fatalf("run ended with %q, want the replay world's panic", msg)
	}
	if w.StepCount() != 40 {
		t.Fatalf("run stopped at world step %d, want 40", w.StepCount())
	}
	if idle := idleStates(); idle != 0 {
		t.Fatalf("%d idle run states after the panic, want the panicked run's dropped", idle)
	}
	waitRoutines(t, before)
}

// TestMeasurePipeFailureReachesRun pins a panic raised while measuring on
// the helper: it stops the helper's measuring, the run goroutine raises it
// at its next capture or at the join, and stopping the helper leaves no
// goroutine behind.
func TestMeasurePipeFailureReachesRun(t *testing.T) {
	before := runtime.NumGoroutine()
	w := mustWorld(t)
	ts := NewTables(w.N(), 1)
	var meter Meter
	meter.Reset(w, ts)
	out := series{make([]float64, 4), make([]float64, 4), make([]float64, 4), make([]float64, 4)}
	p := new(measurePipe)
	p.reset(&meter, out)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		p.Drain()
	}()
	var scratch Scratch
	first := scratchQuad(w, ts, &scratch, 0)
	p.capture(0) // a full record: the meter syncs
	// A record naming a node the world does not have makes the meter
	// panic on the helper.
	p.mu.Lock()
	bad := &p.log[p.captured%pipeDepth].changeRecord
	bad.step, bad.full = 1, false
	bad.addU, bad.addV, bad.remU, bad.remV = nil, nil, nil, nil
	bad.written, bad.rows = []NodeID{NodeID(w.N() + 3)}, make([][]Entry, w.N()+4)
	p.captured++
	p.mu.Unlock()
	raised := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return "no panic"
	}
	if msg := raised(p.join); !strings.Contains(msg, "measuring a trailing step failed") {
		t.Fatalf("join raised %q, want the helper's failure", msg)
	}
	if msg := raised(func() { p.capture(2) }); !strings.Contains(msg, "measuring a trailing step failed") {
		t.Fatalf("capture after the failure raised %q, want the helper's failure", msg)
	}
	if got := (Measurement{out.local[0], out.e2e[0], out.ideal[0], out.stale[0]}); got != first || got.Ideal == 0 {
		t.Fatalf("the record before the failure measured %+v, want %+v", got, first)
	}
	p.abort()
	<-drained
	waitRoutines(t, before)
}

func mustWorld(t *testing.T) *network.World {
	t.Helper()
	w, err := netgen.Generate(testSpec(), 13)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// waitRoutines fails unless the goroutine count falls back to want: a
// helper that exited may take a moment to leave the count.
func waitRoutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
