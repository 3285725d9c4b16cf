// Package metrics is the simulation's zero-allocation instrumentation
// layer: monotonic counters, gauges, and fixed-bucket histograms held in a
// Registry. Every instrument is preallocated at registration time and
// addressed through a small value handle, so the steady-state operations —
// Counter.Inc, Gauge.Set, Histogram.Observe, Timer spans — cost no
// allocations and no map lookups, mirroring how routing.Meter keeps the
// per-step measurement allocation-free.
//
// The layer is nil-safe end to end: registering on a nil *Registry returns
// a zero handle, and every operation on a zero handle is a cheap no-op.
// Harness code therefore instruments unconditionally and pays near-zero
// overhead when no registry is attached.
//
// Instruments never touch the simulation's RNG streams or observable
// state, so attaching a registry cannot perturb seeded results — the
// determinism regression tests pin this by running with instrumentation on
// and off.
//
// Updates are atomic, so instruments may be bumped from the engine's
// parallel sections and scraped concurrently by the HTTP exposition
// handler while a run is in flight.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// counterSlot is the storage behind a Counter handle.
type counterSlot struct {
	name string
	v    atomic.Uint64
}

// gaugeSlot stores a float64 as raw bits behind a Gauge handle.
type gaugeSlot struct {
	name string
	bits atomic.Uint64
}

// histSlot is the storage behind a Histogram (or Timer) handle: k upper
// bounds and k+1 bucket counts (the last bucket is +Inf), plus the running
// count and sum.
type histSlot struct {
	name    string
	bounds  []float64 // immutable after registration
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func (h *histSlot) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing instrument. The zero value is a
// valid no-op handle.
type Counter struct{ s *counterSlot }

// Inc adds one.
func (c Counter) Inc() {
	if c.s != nil {
		c.s.v.Add(1)
	}
}

// Add adds n.
func (c Counter) Add(n uint64) {
	if c.s != nil {
		c.s.v.Add(n)
	}
}

// Value returns the current count (0 for a zero handle).
func (c Counter) Value() uint64 {
	if c.s == nil {
		return 0
	}
	return c.s.v.Load()
}

// Enabled reports whether the handle is backed by a registry.
func (c Counter) Enabled() bool { return c.s != nil }

// Gauge is a set-to-current-value instrument. The zero value is a valid
// no-op handle.
type Gauge struct{ s *gaugeSlot }

// Set records v as the current value.
func (g Gauge) Set(v float64) {
	if g.s != nil {
		g.s.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 for a zero handle).
func (g Gauge) Value() float64 {
	if g.s == nil {
		return 0
	}
	return math.Float64frombits(g.s.bits.Load())
}

// Enabled reports whether the handle is backed by a registry.
func (g Gauge) Enabled() bool { return g.s != nil }

// Histogram is a fixed-bucket distribution instrument. The zero value is a
// valid no-op handle.
type Histogram struct{ s *histSlot }

// Observe records v into its bucket.
func (h Histogram) Observe(v float64) {
	if h.s != nil {
		h.s.observe(v)
	}
}

// Count returns how many observations were recorded.
func (h Histogram) Count() uint64 {
	if h.s == nil {
		return 0
	}
	return h.s.count.Load()
}

// Enabled reports whether the handle is backed by a registry.
func (h Histogram) Enabled() bool { return h.s != nil }

// Timer is a Histogram of elapsed seconds. The zero value is a valid
// no-op handle whose spans never read the clock.
type Timer struct{ s *histSlot }

// Span is one in-flight timed section, produced by Timer.Start.
type Span struct {
	s  *histSlot
	t0 time.Time
}

// Start begins a span. On a zero Timer this returns a zero Span without
// touching the clock.
func (t Timer) Start() Span {
	if t.s == nil {
		return Span{}
	}
	return Span{s: t.s, t0: time.Now()}
}

// Stop records the elapsed seconds since Start. Zero spans are no-ops.
func (sp Span) Stop() {
	if sp.s != nil {
		sp.s.observe(time.Since(sp.t0).Seconds())
	}
}

// Enabled reports whether the handle is backed by a registry.
func (t Timer) Enabled() bool { return t.s != nil }

// DefBuckets is the default histogram bucket layout for plain value
// distributions (meeting sizes, hop counts): powers-of-two-ish up to 256.
var DefBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}

// DurationBuckets is the default bucket layout for Timers, in seconds:
// exponential from 1µs to ~4s.
var DurationBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4,
}

// Registry owns a set of named instruments. Registration (Counter, Gauge,
// Histogram, Timer) allocates and may take a lock; it is meant for run
// setup, not hot loops. Registering an existing name returns a handle to
// the existing instrument, so harnesses can re-register per run and
// accumulate across runs. A nil *Registry is a valid no-op registry.
type Registry struct {
	mu       sync.Mutex
	index    map[string]int // name -> slot index, per kind via prefix below
	counters []*counterSlot
	gauges   []*gaugeSlot
	hists    []*histSlot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Instrument names share one namespace; the index maps a kind-prefixed key
// so a counter and a gauge cannot silently collide under one name.
const (
	kindCounter = "c\x00"
	kindGauge   = "g\x00"
	kindHist    = "h\x00"
)

// Counter registers (or finds) a monotonic counter.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[kindCounter+name]; ok {
		return Counter{s: r.counters[i]}
	}
	s := &counterSlot{name: name}
	r.index[kindCounter+name] = len(r.counters)
	r.counters = append(r.counters, s)
	return Counter{s: s}
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[kindGauge+name]; ok {
		return Gauge{s: r.gauges[i]}
	}
	s := &gaugeSlot{name: name}
	r.index[kindGauge+name] = len(r.gauges)
	r.gauges = append(r.gauges, s)
	return Gauge{s: s}
}

// Histogram registers (or finds) a fixed-bucket histogram. bounds must be
// sorted ascending; nil selects DefBuckets. Re-registration keeps the
// original bounds.
func (r *Registry) Histogram(name string, bounds []float64) Histogram {
	if r == nil {
		return Histogram{}
	}
	return Histogram{s: r.histSlot(name, bounds, DefBuckets)}
}

// Timer registers (or finds) a histogram of elapsed seconds. bounds nil
// selects DurationBuckets.
func (r *Registry) Timer(name string) Timer {
	if r == nil {
		return Timer{}
	}
	return Timer{s: r.histSlot(name, nil, DurationBuckets)}
}

func (r *Registry) histSlot(name string, bounds, def []float64) *histSlot {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[kindHist+name]; ok {
		return r.hists[i]
	}
	if bounds == nil {
		bounds = def
	}
	s := &histSlot{
		name:    name,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.index[kindHist+name] = len(r.hists)
	r.hists = append(r.hists, s)
	return s
}

// CounterPoint is one counter's value in a Snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugePoint is one gauge's value in a Snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistPoint is one histogram's state in a Snapshot. Bounds aliases the
// registry's immutable bucket bounds; Buckets is copied into a buffer the
// Snapshot owns and reuses.
type HistPoint struct {
	Name    string    `json:"name"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry, suitable for exposition
// while the run keeps mutating the live instruments. Reuse one Snapshot
// across scrapes to avoid steady-state allocations.
type Snapshot struct {
	Counters []CounterPoint `json:"counters"`
	Gauges   []GaugePoint   `json:"gauges"`
	Hists    []HistPoint    `json:"histograms"`
}

// Snapshot copies the registry's current state into dst and returns it.
// dst may be nil (a fresh Snapshot is allocated) or a previous snapshot
// whose storage is reused; after warm-up, snapshotting a stable registry
// allocates nothing. Instruments appear in registration order.
func (r *Registry) Snapshot(dst *Snapshot) *Snapshot {
	if dst == nil {
		dst = &Snapshot{}
	}
	if r == nil {
		dst.Counters = dst.Counters[:0]
		dst.Gauges = dst.Gauges[:0]
		dst.Hists = dst.Hists[:0]
		return dst
	}
	r.mu.Lock()
	counters, gauges, hists := r.counters, r.gauges, r.hists
	r.mu.Unlock()

	dst.Counters = dst.Counters[:0]
	for _, s := range counters {
		dst.Counters = append(dst.Counters, CounterPoint{Name: s.name, Value: s.v.Load()})
	}
	dst.Gauges = dst.Gauges[:0]
	for _, s := range gauges {
		dst.Gauges = append(dst.Gauges, GaugePoint{
			Name: s.name, Value: math.Float64frombits(s.bits.Load()),
		})
	}
	if cap(dst.Hists) < len(hists) {
		dst.Hists = make([]HistPoint, 0, len(hists))
	}
	dst.Hists = dst.Hists[:len(hists)]
	for i, s := range hists {
		p := &dst.Hists[i]
		p.Name = s.name
		p.Bounds = s.bounds
		if cap(p.Buckets) < len(s.buckets) {
			p.Buckets = make([]uint64, len(s.buckets))
		}
		p.Buckets = p.Buckets[:len(s.buckets)]
		for j := range s.buckets {
			p.Buckets[j] = s.buckets[j].Load()
		}
		p.Count = s.count.Load()
		p.Sum = math.Float64frombits(s.sumBits.Load())
	}
	return dst
}

// Merge folds src's instruments into r: counters and histogram buckets,
// counts, and sums add; gauges adopt src's value (last merge wins).
// Instruments absent from r are registered with src's bounds. Parallel
// sweeps give every parameter point a private registry so per-point
// counter deltas stay race-free, then Merge the points in index order
// into the sweep-wide registry the exposition endpoints serve.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	counters, gauges, hists := src.counters, src.gauges, src.hists
	src.mu.Unlock()
	for _, s := range counters {
		r.Counter(s.name).Add(s.v.Load())
	}
	for _, s := range gauges {
		r.Gauge(s.name).Set(math.Float64frombits(s.bits.Load()))
	}
	for _, s := range hists {
		dst := r.histSlot(s.name, s.bounds, s.bounds)
		if len(dst.buckets) == len(s.buckets) {
			for i := range s.buckets {
				dst.buckets[i].Add(s.buckets[i].Load())
			}
		}
		dst.count.Add(s.count.Load())
		for {
			old := dst.sumBits.Load()
			next := math.Float64bits(math.Float64frombits(old) + math.Float64frombits(s.sumBits.Load()))
			if dst.sumBits.CompareAndSwap(old, next) {
				break
			}
		}
	}
}

// Counter returns the snapshotted value of the named counter (0 if
// absent) — the lookup sweep/watch use for per-point deltas.
func (s *Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the snapshotted value of the named gauge (0 if absent).
func (s *Snapshot) Gauge(name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}
