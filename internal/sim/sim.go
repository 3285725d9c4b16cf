// Package sim provides the simulation machinery shared by both scenarios:
// a time-step run loop and a small discrete-event queue used by the
// packet-level validation harness. A run steps its agents sequentially;
// concurrency lives one level up, in internal/parallel, which runs whole
// independent runs side by side.
package sim

import "container/heap"

// StepFunc advances a simulation one step and reports whether the run is
// finished.
type StepFunc func(step int) (done bool)

// Run drives step 0..maxSteps-1, stopping early when fn reports done. It
// returns the number of steps executed and whether fn completed before the
// step budget ran out.
func Run(maxSteps int, fn StepFunc) (steps int, completed bool) {
	for step := 0; step < maxSteps; step++ {
		if fn(step) {
			return step + 1, true
		}
	}
	return maxSteps, false
}

// Event is a scheduled callback in the discrete-event queue.
type event struct {
	at  int
	seq int
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// EventQueue is a deterministic discrete-event scheduler: events fire in
// time order, FIFO within a time. The zero value is ready to use.
type EventQueue struct {
	h   eventHeap
	now int
	seq int
}

// Now returns the time of the most recently fired event.
func (q *EventQueue) Now() int { return q.now }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// Schedule enqueues fn to fire at time at. Scheduling in the past (before
// Now) is clamped to Now — the event fires next.
func (q *EventQueue) Schedule(at int, fn func()) {
	if at < q.now {
		at = q.now
	}
	heap.Push(&q.h, event{at: at, seq: q.seq, fn: fn})
	q.seq++
}

// RunUntil fires events in order until the queue is empty or the next
// event is after deadline. It returns the number of events fired.
func (q *EventQueue) RunUntil(deadline int) int {
	fired := 0
	for len(q.h) > 0 && q.h[0].at <= deadline {
		ev := heap.Pop(&q.h).(event)
		q.now = ev.at
		ev.fn()
		fired++
	}
	return fired
}

// Drain fires all remaining events and returns how many fired.
func (q *EventQueue) Drain() int {
	fired := 0
	for len(q.h) > 0 {
		ev := heap.Pop(&q.h).(event)
		q.now = ev.at
		ev.fn()
		fired++
	}
	return fired
}
