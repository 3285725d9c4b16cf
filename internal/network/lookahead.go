package network

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/radio"
)

// Lookahead steps a live world on a helper goroutine and records it onto a
// trajectory tape, while the caller steps a replay world that reads the
// same tape as it is written. Mobility, decay and faults never depend on
// what the agents do, so the live world may run ahead of the run that
// reads it, and replay is bit-identical to live stepping: the caller sees
// exactly the world it would have stepped itself, and the second
// processor pays for the mobility, decay and topology work.
//
// The helper can also carry side work that trails the run, such as
// routing's measurement of the steps the run has finished (see Sidework).
// Live stepping keeps priority while the reader is fewer than
// lookaheadLead recorded steps behind; in the slack it does one unit of
// side work at a time, and once the live world has taken every step it
// drains what is left.
//
// The zero value is ready. A Lookahead serves one run at a time and keeps
// its recorder, tape, replay cursor and replay world for the next, so a
// reused one records into storage it already has and resets its replay
// world in place; it builds a new one only when the node count changes.
type Lookahead struct {
	rec  TrajectoryRecorder
	tape Trajectory
	dec  trajDecoder
	rw   *World       // the replay world Start hands out, valid until the next Start
	read atomic.Int64 // steps the replay world has read; the helper's schedule
	stop atomic.Bool
	wg   sync.WaitGroup

	// The run the helper serves, set by Start and cleared by Stop.
	live  *World
	steps int
	side  Sidework
	body  func() // a.helper, bound once so Start does not allocate
}

// lookaheadLead is how many recorded steps a Lookahead helper keeps ahead
// of the reader before it turns to side work: with fewer, the reader may
// soon wait for the tape, so stepping the live world comes first.
const lookaheadLead = 2

// Sidework is work a Lookahead helper does in the gaps of live stepping.
// Its producer is the goroutine that reads the replay world.
type Sidework interface {
	// TryOne does one unit of work if one is ready and reports whether
	// it did. It must not block.
	TryOne() bool
	// Drain does the work that is left once the live world has taken
	// every step (or failed), waiting for more until the producer says
	// there is none to come or gives up. The producer must do one or the
	// other before it calls Stop, or Stop waits for ever.
	Drain()
}

// Start records live's current state as the tape's start and asks spawn to
// run the helper, which steps live `steps` times and publishes each step,
// doing side's work (nil for none) in between. spawn either starts its
// argument on a new goroutine and returns true, or declines and returns
// false (no processor is free). Start returns the replay world the caller
// steps in place of live, or nil — with live untouched — when spawn
// declines or live is not worth running ahead: a static world never
// changes between faults, and a replay world already steps in
// O(changes).
//
// The caller must not touch live until Stop returns; by then live has
// been stepped once for every step the caller read from the replay world,
// or more. After a run that read all `steps` steps, live ends exactly
// where stepping it inline would have left it.
func (a *Lookahead) Start(live *World, steps int, spawn func(func()) bool, side Sidework) (*World, error) {
	if !live.dynamic || live.traj != nil || steps <= 0 {
		return nil, nil
	}
	a.rec.reset(live, &a.tape)
	// The replay world copies what it must mirror from live before the
	// helper starts stepping it.
	rw, err := a.replayWorld(live)
	if err != nil {
		return nil, err
	}
	if a.body == nil {
		a.body = a.helper
	}
	a.live, a.steps, a.side = live, steps, side
	a.read.Store(0)
	a.stop.Store(false)
	a.wg.Add(1)
	if !spawn(a.body) {
		a.wg.Done()
		a.live, a.side = nil, nil
		return nil, nil
	}
	return rw, nil
}

// replayWorld returns the replay world for a run over the tape just
// started from live: the kept one, reset in place, or a new one when the
// node count changed.
func (a *Lookahead) replayWorld(live *World) (*World, error) {
	rw := a.rw
	if rw == nil || rw.N() != live.N() {
		var err error
		if rw, err = a.tape.world(&a.dec); err != nil {
			return nil, err
		}
		a.dec.read = &a.read
		a.rw = rw
	} else {
		rw.resetReplay(&a.tape.snap, live.topo)
		a.dec.reset(&a.tape)
	}
	rw.step = live.step
	if live.flt != nil {
		rw.mirrorFaults(live.flt)
	} else {
		rw.flt = nil
	}
	return rw, nil
}

// helper is the helper goroutine's body: step the live world, then drain
// the side work.
func (a *Lookahead) helper() {
	defer a.wg.Done()
	a.stepLive()
	if a.side != nil {
		a.side.Drain()
	}
}

// stepLive steps, records and publishes until every step is recorded or
// Stop asks it to quit, doing side work whenever the reader is at least
// lookaheadLead steps behind. A panic in the live world fails the tape,
// so the reader panics with it instead of waiting forever.
func (a *Lookahead) stepLive() {
	defer func() {
		if p := recover(); p != nil {
			a.rec.fail(fmt.Errorf("live world stepping failed at step %d: %v", a.rec.t.steps+1, p))
		}
	}()
	live, side := a.live, a.side
	for i := 0; i < a.steps && !a.stop.Load(); {
		if side != nil && i-int(a.read.Load()) >= lookaheadLead && side.TryOne() {
			continue
		}
		live.Step()
		a.rec.AfterStep()
		i++
	}
	a.rec.Finish()
}

// Stop makes the helper quit after the step it is on and waits until it
// has exited. After a run that read every step the helper is done
// already, and Stop only waits for it. Call it exactly once per Start
// that returned a world, also when the run fails or panics.
func (a *Lookahead) Stop() {
	a.stop.Store(true)
	a.wg.Wait()
	a.live, a.side = nil, nil
}

// mirrorFaults gives a replay world the fault bookkeeping its recorded
// world had at the tape's start — the schedule (for LastFaultEvents), the
// epoch and the cumulative counts — so it reports them exactly as the live
// world would. The masks themselves come from the start snapshot.
func (w *World) mirrorFaults(live *faultState) {
	if w.flt == nil {
		w.initFaultState()
	}
	f := w.flt
	f.sched, f.epoch, f.lastEvents = live.sched, live.epoch, live.lastEvents
	f.injectedTotal, f.recoveredTotal = live.injectedTotal, live.recoveredTotal
}

// resetReplay turns a replay world back into the world s captured, whose
// links are topo's, reusing its storage: what Trajectory.world builds from
// s, but without building. s must be a snapshot of a world of w's size,
// and topo that world's topology. A replay world never rebuilds its
// topology, so its grid is left as it was.
func (w *World) resetReplay(s *Snapshot, topo *graph.Directed) {
	w.arena = s.Arena
	copy(w.pos, s.Positions)
	for i, r := range s.Ranges {
		w.radios[i] = radio.New(r)
	}
	clear(w.isGateway)
	w.gateways = w.gateways[:0]
	for _, g := range s.Gateways {
		if !w.isGateway[g] {
			w.isGateway[g] = true
			w.gateways = append(w.gateways, g)
		}
	}
	// Fault state reuses the kept masks: they are cleared, and set again
	// from the snapshot (Lookahead.Start drops them for a fault-free run).
	if w.flt != nil || len(s.Dead) > 0 || len(s.DownGateways) > 0 || s.PartitionX != nil {
		partX := 0.0
		if s.PartitionX != nil {
			partX = *s.PartitionX
		}
		if err := w.setFaultMasks(s.Dead, s.DownGateways, s.PartitionX != nil, partX); err != nil {
			// The snapshot was just taken from a world of this size.
			panic(fmt.Sprintf("network: %v resetting a replay world", err))
		}
	}
	w.topo.CopyOwned(topo, 8)
	w.deltas.reset(0)
	w.m = worldMetrics{}
}
