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
// The zero value is ready. A Lookahead serves one run at a time and keeps
// its recorder, tape and replay cursor for the next, so a reused one
// records into storage it already has; only the replay world is built
// anew.
type Lookahead struct {
	rec  TrajectoryRecorder
	tape Trajectory
	dec  trajDecoder
	stop atomic.Bool
	wg   sync.WaitGroup
}

// Start records live's current state as the tape's start and asks spawn to
// run the helper, which steps live `steps` times and publishes each step.
// spawn either starts its argument on a new goroutine and returns true,
// or declines and returns false (no processor is free). Start returns the
// replay world the caller steps in place of live, or nil — with live
// untouched — when spawn declines or live is not worth running ahead: a
// static world never changes between faults, and a replay world already
// steps in O(changes).
//
// The caller must not touch live until Stop returns; by then live has
// been stepped once for every step the caller read from the replay world,
// or more. After a run that read all `steps` steps, live ends exactly
// where stepping it inline would have left it.
func (a *Lookahead) Start(live *World, steps int, spawn func(func()) bool) (*World, error) {
	if !live.dynamic || live.traj != nil || steps <= 0 {
		return nil, nil
	}
	a.rec.reset(live, &a.tape)
	// Read what the replay world must mirror before the helper starts
	// stepping live.
	step, hasFlt := live.step, live.flt != nil
	var flt faultState
	if hasFlt {
		flt = *live.flt
	}
	a.stop.Store(false)
	a.wg.Add(1)
	if !spawn(func() {
		defer a.wg.Done()
		a.run(live, steps)
	}) {
		a.wg.Done()
		return nil, nil
	}
	rw, err := a.tape.world(&a.dec)
	if err != nil {
		a.Stop()
		return nil, err
	}
	rw.step = step
	if hasFlt {
		rw.mirrorFaults(&flt)
	}
	return rw, nil
}

// run is the helper: step, record, publish, until every step is recorded
// or Stop asks it to quit. A panic in the live world fails the tape, so
// the reader panics with it instead of waiting forever.
func (a *Lookahead) run(live *World, steps int) {
	defer func() {
		if p := recover(); p != nil {
			a.rec.fail(fmt.Errorf("live world stepping failed at step %d: %v", a.rec.t.steps+1, p))
		}
	}()
	for i := 0; i < steps && !a.stop.Load(); i++ {
		live.Step()
		a.rec.AfterStep()
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
