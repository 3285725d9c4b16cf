package network

import (
	"fmt"
	"sync"
	"sync/atomic"
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
// drains what is left. A world not worth running ahead gets a helper that
// only drains the side work.
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

	// The run the helper serves, set by Start and cleared by Stop. live
	// is nil for a helper that only drains side work.
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

// Start asks spawn to run a helper for a run of `steps` steps on live,
// doing side's work (nil for none). spawn either starts its argument on a
// new goroutine and returns true, or declines and returns false (no
// processor is free). Start reports whether a helper started, and returns
// the replay world the caller steps in place of live, or nil to step live
// itself.
//
// A live dynamic world is worth running ahead: Start records its current
// state as the tape's start, and the helper steps it `steps` times and
// publishes each step. A static world never changes between faults, and a
// replay world already steps in O(changes), so for those the helper only
// drains side; without side work Start starts nothing. When spawn
// declines, live is untouched.
//
// The caller must not touch live until Stop returns; by then a world run
// ahead has been stepped once for every step the caller read from the
// replay world, or more. After a run that read all `steps` steps, live
// ends exactly where stepping it inline would have left it.
func (a *Lookahead) Start(live *World, steps int, spawn func(func()) bool, side Sidework) (replay *World, started bool) {
	ahead := live.dynamic && live.traj == nil && steps > 0
	if !ahead && side == nil {
		return nil, false
	}
	if ahead {
		a.rec.reset(live, &a.tape)
		a.rw = a.tape.replayInto(a.rw, &a.dec)
		a.dec.read = &a.read
		a.live = live
	}
	if a.body == nil {
		a.body = a.helper
	}
	a.steps, a.side = steps, side
	a.read.Store(0)
	a.stop.Store(false)
	a.wg.Add(1)
	if !spawn(a.body) {
		a.wg.Done()
		a.live, a.side = nil, nil
		return nil, false
	}
	if !ahead {
		return nil, true
	}
	return a.rw, true
}

// helper is the helper goroutine's body: step the live world, if any,
// then drain the side work.
func (a *Lookahead) helper() {
	defer a.wg.Done()
	if a.live != nil {
		a.stepLive()
	}
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
// that started a helper, also when the run fails or panics.
func (a *Lookahead) Stop() {
	a.stop.Store(true)
	a.wg.Wait()
	a.live, a.side = nil, nil
}
