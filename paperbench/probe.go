package main

import (
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// probe is what a batch reports its timings into. On the untraced pass it
// only collects run start times; on the traced pass it also carries the
// registry attached through Scenario.Metrics and the outside timers the
// benchmark wraps around public calls. The reference batch carries a
// tracer instead: the binary log its runs write gives log_kb_per_run.
type probe struct {
	reg    *metrics.Registry // nil outside the traced pass
	out    *outside          // nil outside the traced pass
	tracer trace.Tracer      // set only for the reference batch
	starts []time.Time
}

// runStart marks the start of one run. Harness batches call it from their
// worldFor callback, which RunMany invokes as each run begins.
func (p *probe) runStart() { p.starts = append(p.starts, time.Now()) }

// runTimes turns the batch's run start marks into per-run wall times; the
// last run ends when the batch returns.
func (p *probe) runTimes(end time.Time) []time.Duration {
	ds := make([]time.Duration, len(p.starts))
	for i, s := range p.starts {
		next := end
		if i+1 < len(p.starts) {
			next = p.starts[i+1]
		}
		ds[i] = next.Sub(s)
	}
	return ds
}

// outside holds the timers the benchmark keeps around public calls into
// layers the registry does not time.
type outside struct {
	generate    time.Duration // netgen inside timed runs
	generations int

	emit          time.Duration // all LogWriter Emit/EmitWorld/EmitAnchor calls
	emitInDeposit time.Duration // the part emitted inside the deposit phase span
	emitInMeet    time.Duration // the part emitted inside the meet phase span
	events        int64
	logBytes      int64

	decode   time.Duration // NewLogReader + Scan
	verify   time.Duration // replay.VerifyLog
	verifies int

	replayStep  time.Duration // Trajectory.World() stepped outside the runs
	replaySteps int
}

// timeGenerate runs gen, charging its time to the netgen layer when the
// probe is traced.
func (p *probe) timeGenerate(gen func() (*World, error)) (*World, error) {
	if p.out == nil {
		return gen()
	}
	t0 := time.Now()
	w, err := gen()
	p.out.generate += time.Since(t0)
	p.out.generations++
	return w, err
}

// timedSink wraps the binary LogWriter and times every call into it. It
// implements trace.WorldSink, so the harness still records world anchors
// and deltas through it.
type timedSink struct {
	lw  *trace.LogWriter
	out *outside
}

func (s timedSink) Emit(e trace.Event) {
	t0 := time.Now()
	s.lw.Emit(e)
	d := time.Since(t0)
	s.out.emit += d
	switch e.Kind {
	case trace.KindDeposit:
		s.out.emitInDeposit += d
	case trace.KindMeet:
		s.out.emitInMeet += d
	}
}

func (s timedSink) EmitWorld(d trace.WorldDelta) {
	t0 := time.Now()
	s.lw.EmitWorld(d)
	s.out.emit += time.Since(t0)
}

func (s timedSink) EmitAnchor(step int, snapshot []byte) {
	t0 := time.Now()
	s.lw.EmitAnchor(step, snapshot)
	s.out.emit += time.Since(t0)
}

// runtimeMem reads the heap's cumulative allocation counter.
type runtimeMem struct{ totalAlloc uint64 }

func (m *runtimeMem) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.totalAlloc = ms.TotalAlloc
}
