package routing

import (
	"fmt"
	"sync"

	"repro/internal/network"
	"repro/internal/parallel"
)

// Measurement is write-only output: nothing an agent reads depends on it,
// and Recovery and the window means are computed after the loop. So when
// a processor is free a run measures one step behind on a helper
// goroutine. The run goroutine captures each step's change record after
// the deposits (record.go) into a bounded log, and the helper feeds the
// records to the Meter in step order while the agents decide the next
// step, writing each measurement into the Result series by step index.
// The run joins the helper before it reads the series. The helper is a
// network.Lookahead's goroutine: for a live world it steps the world ahead
// of the run and measures in the gaps of live stepping, and for replay and
// static worlds it only measures. One goroutine measures at a time: when an
// awake helper falls pipeHelp records behind, the run goroutine measures
// the oldest itself, so where the helper has the more work the two share
// it.
// Runs with a Tracer, an Observer or a metrics registry measure inline:
// they see the measurements in step order.

// pipeDepth is how many captured steps may wait for the helper; a run
// that gets that far ahead waits for it.
const pipeDepth = 16

// pipeWake is how many captured steps a waiting helper is left to gather
// before the run wakes it, so a measure-only helper wakes once per batch
// instead of once per step. Joining the helper wakes it for the rest.
const pipeWake = pipeDepth / 2

// pipeHelp is how many captured steps an awake helper may fall behind
// before the run measures one itself: where the helper has more work than
// the run (a live world to step as well), the two share the measuring.
const pipeHelp = 4

// series is a run's four per-step measurement series, sized up front.
type series struct{ local, e2e, ideal, stale []float64 }

// set writes one step's measurements.
func (s series) set(step int, mm Measurement) {
	s.local[step] = mm.Local
	s.e2e[step] = mm.EndToEnd
	s.ideal[step] = mm.Ideal
	s.stale[step] = mm.Staleness
}

// measurePipe hands change records from the run goroutine to the helper
// that measures them: a ring of pipeDepth logged records, filled by
// capture and emptied by TryOne and Drain (network.Sidework), and by
// capture itself when the helper lags.
type measurePipe struct {
	meter *Meter
	out   series

	mu       sync.Mutex
	cond     sync.Cond // broadcast when a record is captured, measured, or the run ends
	log      [pipeDepth]loggedRecord
	captured int  // records the run has captured
	measured int  // records measured so far
	busy     bool // a goroutine is measuring record measured
	waiting  bool // the helper is asleep in Drain, waiting for records
	closed   bool
	aborted  bool
	failure  any // a panic raised while measuring
}

// reset prepares the pipe for a run measuring with meter into out.
func (p *measurePipe) reset(meter *Meter, out series) {
	p.cond.L = &p.mu
	p.meter, p.out = meter, out
	p.captured, p.measured, p.busy, p.waiting = 0, 0, false, false
	p.closed, p.aborted, p.failure = false, false, nil
}

// capture logs the step's change record for the helper, waiting while the
// log is full, and measures the oldest record itself when the helper is
// pipeHelp behind and not measuring. A panic raised while measuring is
// raised again here, on the run goroutine, at the next capture.
func (p *measurePipe) capture(step int) {
	p.mu.Lock()
	for p.captured-p.measured == pipeDepth && p.failure == nil {
		p.cond.Wait()
	}
	p.mu.Unlock()
	p.rethrow()
	// The helper reads only slots below captured, so this one is free.
	p.log[p.captured%pipeDepth].capture(&p.meter.src, step)
	p.mu.Lock()
	p.captured++
	if p.captured-p.measured >= pipeWake {
		p.cond.Broadcast()
	}
	// An awake helper this far behind is busier than the run: take one
	// record. (A helper asleep in Drain is woken at pipeWake instead.)
	help := p.captured-p.measured >= pipeHelp && !p.busy && !p.waiting && !p.aborted
	p.busy = p.busy || help
	p.mu.Unlock()
	if help {
		p.measureOne()
	}
}

// join waits until the helper has measured every captured record, and
// raises a panic it met doing so.
func (p *measurePipe) join() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	for p.measured < p.captured && p.failure == nil {
		p.cond.Wait()
	}
	p.mu.Unlock()
	p.rethrow()
}

// abort tells the helper to measure nothing more: the run failed.
func (p *measurePipe) abort() {
	p.mu.Lock()
	p.aborted = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *measurePipe) rethrow() {
	p.mu.Lock()
	f := p.failure
	p.mu.Unlock()
	if f != nil {
		panic(fmt.Sprintf("routing: measuring a trailing step failed: %v", f))
	}
}

// TryOne measures the oldest captured record if there is one and no
// other goroutine is measuring.
func (p *measurePipe) TryOne() bool {
	p.mu.Lock()
	ready := p.measured < p.captured && !p.busy && !p.aborted
	p.busy = p.busy || ready
	p.mu.Unlock()
	if ready {
		p.measureOne()
	}
	return ready
}

// Drain measures captured records as they come until the run has joined
// and every record is measured, or the run aborts.
func (p *measurePipe) Drain() {
	for {
		p.mu.Lock()
		for !p.aborted && (p.busy || (p.measured == p.captured && !p.closed)) {
			p.waiting = true
			p.cond.Wait()
		}
		p.waiting = false
		done := p.aborted || p.measured == p.captured
		p.busy = !done
		p.mu.Unlock()
		if done {
			return
		}
		p.measureOne()
	}
}

// measureOne measures the oldest captured record, which the caller has
// claimed by setting busy: one goroutine measures at a time, in step
// order, and the mutex orders each measurement before the next, whichever
// goroutine makes it. A panic is kept for the run goroutine to raise, and
// stops the measuring.
func (p *measurePipe) measureOne() {
	defer func() {
		if e := recover(); e != nil {
			p.mu.Lock()
			p.failure, p.aborted, p.busy = e, true, false
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}()
	r := &p.log[p.measured%pipeDepth]
	p.out.set(r.step, p.meter.consume(&r.changeRecord))
	p.mu.Lock()
	p.measured++
	p.busy = false
	p.cond.Broadcast()
	p.mu.Unlock()
}

// helper is the off-run work one budget token buys a routing run: a
// Lookahead that steps a live world ahead of the run, or only measures
// for a replay or static world, and the pipe it measures from. Each
// runState keeps one with its storage.
type helper struct {
	ahead network.Lookahead
	pipe  measurePipe
}

// startHelper moves the run's measurement, and a live dynamic world's
// stepping, onto h's goroutine when a processor is free. It reports
// whether h started, and returns the replay world the run steps in place
// of w, or nil to step w itself. Runs with a Tracer, an Observer or a
// metrics registry stay inline: a tracer's world recorder and an observer
// read the world the run steps, both see measurements in step order, and
// the phase timers split one goroutine's wall time.
func startHelper(h *helper, w *network.World, sc Scenario, meter *Meter, out series) (*network.World, bool) {
	if sc.Tracer != nil || sc.Observer != nil || sc.Metrics != nil || !parallel.Spare() {
		return nil, false
	}
	h.pipe.reset(meter, out)
	replay, started := h.ahead.Start(w, sc.Steps, parallel.Go, &h.pipe)
	if !started {
		h.pipe.reset(nil, series{})
	}
	return replay, started
}

// stop ends the helper's part in the run and waits for it to exit: after
// a join it only waits, after a failure it tells the helper to give up
// first.
func (h *helper) stop() {
	h.pipe.abort()
	h.ahead.Stop()
	h.pipe.reset(nil, series{})
}
