package network

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
)

// goSpawn starts every helper, as a free processor would.
func goSpawn(f func()) bool {
	go f()
	return true
}

// staticFaultWorld is a static twin of buildFaultWorld: on it only fault
// epochs change anything, so its tape is mostly step gaps.
func staticFaultWorld(t *testing.T, n int, gateways []NodeID, seed uint64) *World {
	t.Helper()
	w, err := buildFaultWorld(t, n, gateways, seed).Snapshot().World()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStreamingTapeReaderWaits drives a recorder and a reader in
// lockstep: the reader, stepping a replay world on its own goroutine, must
// block until each step is published — at step gaps too, where the
// published bytes run out before the next record exists — and then match
// a live referee exactly. The static world's tape is gaps between fault
// records with empty steps trailing the last one; the dynamic world's
// records nearly every step, fault epochs included.
func TestStreamingTapeReaderWaits(t *testing.T) {
	const n, steps = 60, 40
	gateways := []NodeID{0, 20}
	for _, tc := range []struct {
		name  string
		build func() *World
		sched *faults.Schedule
	}{
		{"static-gaps", func() *World { return staticFaultWorld(t, n, gateways, 4) }, faults.NewSchedule([]faults.Event{
			{Step: 3, Kind: faults.NodeDown, Node: 5},
			{Step: 9, Kind: faults.GatewayDown, Node: gateways[1]},
			{Step: 17, Kind: faults.NodeUp, Node: 5, Respawn: true, RX: 0.5, RY: 0.5},
		})},
		{"dynamic-churn", func() *World { return buildFaultWorld(t, n, gateways, 4) }, faultSchedules(n, gateways, steps)["preset-churn"]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, ref := tc.build(), tc.build()
			src.SetFaults(tc.sched)
			ref.SetFaults(tc.sched)
			rec := NewTrajectoryRecorder(src)
			rw, err := rec.t.World()
			if err != nil {
				t.Fatal(err)
			}
			rw.SetFaults(tc.sched)
			stepped := make(chan int)
			go func() {
				defer close(stepped)
				for i := 1; i <= steps; i++ {
					rw.Step()
					stepped <- i
				}
			}()
			for i := 1; i <= steps; i++ {
				select {
				case s := <-stepped:
					t.Fatalf("reader reached step %d before the recorder published it", s)
				case <-time.After(2 * time.Millisecond):
				}
				src.Step()
				rec.AfterStep()
				if got := <-stepped; got != i {
					t.Fatalf("reader reports step %d, want %d", got, i)
				}
				ref.Step()
				sameWorldState(t, i, ref, rw)
			}
			rec.Finish()
			if _, open := <-stepped; open {
				t.Fatal("reader stepped past the recorded steps")
			}
			if ref.FaultEpoch() == 0 {
				t.Fatal("schedule fired no events; the fault records are untested")
			}
		})
	}
}

// TestStreamingTapeWriterStopsEarly pins the two ways a tape ends short:
// a recorder that finishes early makes a reader that needs a later step
// panic with the exhaustion error, and a failed recorder makes it panic
// with the failure — neither leaves the reader waiting.
func TestStreamingTapeWriterStopsEarly(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(r *TrajectoryRecorder)
		want string
	}{
		{"finish", func(r *TrajectoryRecorder) { r.Finish() }, "trajectory exhausted"},
		{"fail", func(r *TrajectoryRecorder) { r.fail(errors.New("recorder gave up")) }, "recorder gave up"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := buildFaultWorld(t, 40, []NodeID{0}, 6)
			rec := NewTrajectoryRecorder(src)
			rw, err := rec.t.World()
			if err != nil {
				t.Fatal(err)
			}
			got := make(chan string)
			go func() {
				defer func() { got <- fmt.Sprint(recover()) }()
				for i := 0; i < 10; i++ {
					rw.Step()
				}
			}()
			for i := 0; i < 5; i++ {
				src.Step()
				rec.AfterStep()
			}
			tc.end(rec)
			if msg := <-got; !strings.Contains(msg, tc.want) {
				t.Fatalf("reader stopped with %q, want a panic mentioning %q", msg, tc.want)
			}
			if rw.StepCount() != 5 {
				t.Fatalf("reader stepped %d times before stopping, want 5", rw.StepCount())
			}
		})
	}
}

// TestLookaheadMatchesLive is the helper's equivalence gate: under every
// fault preset, the scripted all-kinds schedule and a clean run, the
// replay world a Lookahead hands out matches a live referee at every
// step, and after Stop the live world the helper stepped ends where the
// referee does. The runs start from a world already stepped 12 times, so
// the replay world must also take over the step count and the fault
// bookkeeping.
func TestLookaheadMatchesLive(t *testing.T) {
	const n, steps, warm = 90, 60, 12
	gateways := []NodeID{0, 30, 60}
	scheds := faultSchedules(n, gateways, steps+warm)
	scheds["clean"] = nil
	var a Lookahead // reused across cases, as routing's free list does
	for name, sched := range scheds {
		t.Run(name, func(t *testing.T) {
			live, ref := buildFaultWorld(t, n, gateways, 8), buildFaultWorld(t, n, gateways, 8)
			for _, w := range []*World{live, ref} {
				w.SetFaults(sched)
				for i := 0; i < warm; i++ {
					w.Step()
				}
			}
			rw, err := a.Start(live, steps, goSpawn)
			if err != nil || rw == nil {
				t.Fatalf("Start = %v, %v", rw, err)
			}
			defer a.Stop()
			for i := 1; i <= steps; i++ {
				rw.Step()
				ref.Step()
				sameWorldState(t, warm+i, ref, rw)
				if rw.StepCount() != ref.StepCount() {
					t.Fatalf("step %d: replay world counts %d steps, live %d", i, rw.StepCount(), ref.StepCount())
				}
				if got, want := fmt.Sprint(rw.LastFaultEvents()), fmt.Sprint(ref.LastFaultEvents()); got != want {
					t.Fatalf("step %d: last fault events %s, live %s", i, got, want)
				}
			}
			a.Stop()
			sameWorldState(t, warm+steps, ref, live)
			if live.StepCount() != ref.StepCount() {
				t.Fatalf("helper left the live world at step %d, want %d", live.StepCount(), ref.StepCount())
			}
		})
	}
}

// TestLookaheadTapeMatchesRecordTrajectory pins the helper's finished tape
// byte for byte to RecordTrajectory's over the same world, on a fresh
// Lookahead and again on the reused one.
func TestLookaheadTapeMatchesRecordTrajectory(t *testing.T) {
	const n, steps = 80, 70
	gateways := []NodeID{0, 40}
	sched := faultSchedules(n, gateways, steps)["preset-blackout"]
	build := func() *World {
		w := buildFaultWorld(t, n, gateways, 12)
		w.SetFaults(sched)
		return w
	}
	want, err := RecordTrajectory(build(), steps)
	if err != nil {
		t.Fatal(err)
	}
	var a Lookahead
	for pass := 0; pass < 2; pass++ {
		rw, err := a.Start(build(), steps, goSpawn)
		if err != nil || rw == nil {
			t.Fatalf("pass %d: Start = %v, %v", pass, rw, err)
		}
		for i := 0; i < steps; i++ {
			rw.Step()
		}
		a.Stop()
		if !bytes.Equal(a.tape.data, want.data) {
			t.Fatalf("pass %d: helper tape (%d bytes) differs from RecordTrajectory's (%d bytes)", pass, len(a.tape.data), len(want.data))
		}
		if a.tape.Records() != want.Records() || a.tape.Steps() != want.Steps() {
			t.Fatalf("pass %d: helper tape holds %d records over %d steps, want %d over %d",
				pass, a.tape.Records(), a.tape.Steps(), want.Records(), want.Steps())
		}
	}
}

// panicMover moves like a slow drifter until its step budget runs out,
// then panics: a live world that fails mid-run.
type panicMover struct{ left int }

func (m *panicMover) Step(p geom.Point) geom.Point {
	if m.left--; m.left < 0 {
		panic("mover broke")
	}
	return geom.Point{X: p.X + 0.1, Y: p.Y}
}

// panickingWorld is a small dynamic world whose node 1 panics on its
// failAt-th move.
func panickingWorld(t *testing.T, failAt int) *World {
	t.Helper()
	w, err := NewWorld(Config{
		Arena:     geom.Square(20),
		Positions: []geom.Point{{X: 5, Y: 5}, {X: 8, Y: 5}, {X: 11, Y: 5}},
		Radios:    []radio.Radio{radio.New(4), radio.New(4), radio.New(4)},
		Movers:    []mobility.Mover{mobility.Static{}, &panicMover{left: failAt - 1}, mobility.Static{}},
		Gateways:  []NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestLookaheadHelperPanicFailsReader pins the helper's failure path: a
// panic in the live world's Step fails the tape, the reader panics with it
// at the step it can no longer get instead of waiting forever, and Stop
// returns with the helper gone.
func TestLookaheadHelperPanicFailsReader(t *testing.T) {
	before := runtime.NumGoroutine()
	var a Lookahead
	rw, err := a.Start(panickingWorld(t, 4), 10, goSpawn)
	if err != nil || rw == nil {
		t.Fatalf("Start = %v, %v", rw, err)
	}
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		for i := 0; i < 10; i++ {
			rw.Step()
		}
		return "no panic"
	}()
	a.Stop()
	if !strings.Contains(msg, "live world stepping failed at step 4") || !strings.Contains(msg, "mover broke") {
		t.Fatalf("reader stopped with %q", msg)
	}
	if rw.StepCount() != 3 {
		t.Fatalf("reader replayed %d steps, want the 3 recorded before the failure", rw.StepCount())
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails unless the goroutine count falls back to want: a
// helper that exited may take a moment to leave the count.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLookaheadStopEarly pins Stop on a run that quits after a few steps:
// the helper stops after the step it is on, exits, and has stepped the
// live world at least as far as the reader read.
func TestLookaheadStopEarly(t *testing.T) {
	before := runtime.NumGoroutine()
	var a Lookahead
	live := buildFaultWorld(t, 60, []NodeID{0}, 3)
	rw, err := a.Start(live, 500, goSpawn)
	if err != nil || rw == nil {
		t.Fatalf("Start = %v, %v", rw, err)
	}
	for i := 0; i < 3; i++ {
		rw.Step()
	}
	a.Stop()
	if got := live.StepCount(); got < 3 || got >= 500 {
		t.Fatalf("stopped helper left the live world at step %d, want between 3 and 499", got)
	}
	waitGoroutines(t, before)
}

// TestLookaheadDeclines pins when Start hands out no replay world and
// leaves the live world untouched: when spawn declines (no free
// processor), and without asking spawn for static or replay worlds.
func TestLookaheadDeclines(t *testing.T) {
	var a Lookahead
	dynamic := buildFaultWorld(t, 40, []NodeID{0}, 2)
	if rw, err := a.Start(dynamic, 20, func(func()) bool { return false }); rw != nil || err != nil {
		t.Fatalf("declined spawn: Start = %v, %v", rw, err)
	}
	if dynamic.StepCount() != 0 {
		t.Fatal("declined spawn stepped the live world")
	}
	traj, err := RecordTrajectory(buildFaultWorld(t, 40, []NodeID{0}, 2), 20)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := traj.World()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*World{"static": staticFaultWorld(t, 40, []NodeID{0}, 2), "replay": replay} {
		asked := false
		rw, err := a.Start(w, 20, func(func()) bool { asked = true; return true })
		if rw != nil || err != nil || asked {
			t.Fatalf("%s world: Start = %v, %v (spawn asked: %v)", name, rw, err, asked)
		}
	}
}
