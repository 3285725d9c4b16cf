// Package trace records structured simulation events — agent moves,
// meetings, route deposits, per-step measurements — so runs can be
// inspected, replayed into analysis pipelines, or diffed across code
// changes. Scenario harnesses step agents in a fixed order and batch
// runners trace sequentially, so a trace is byte-for-byte reproducible.
package trace

import "sync"

// Kind classifies an event.
type Kind string

// Event kinds emitted by the scenario harnesses.
const (
	KindMove    Kind = "move"    // Agent moved Node → To
	KindMeet    Kind = "meet"    // a meeting of Value agents at Node
	KindDeposit Kind = "deposit" // Agent wrote a route at Node toward To
	KindMeasure Kind = "measure" // per-step metric; Extra names it
	KindFinish  Kind = "finish"  // run completed at Step
	KindFault   Kind = "fault"   // fault events fired; Value counts them, Extra names the first kind
)

// Event is one simulation occurrence. Its JSON tags define the JSON Lines
// export of a log (replay.ExportJSONL).
type Event struct {
	Step  int     `json:"step"`
	Kind  Kind    `json:"kind"`
	Agent int32   `json:"agent,omitempty"`
	Node  int32   `json:"node,omitempty"`
	To    int32   `json:"to,omitempty"`
	Value float64 `json:"value,omitempty"`
	Extra string  `json:"extra,omitempty"`
}

// Tracer receives events. The harnesses emit from one goroutine: batch
// runners with a Tracer attached run sequentially.
type Tracer interface {
	Emit(Event)
}

// WorldDelta is one step's world evolution: the nodes whose positions
// changed (ascending IDs with their new coordinates), the nodes whose radio
// ranges changed, and — when a fault epoch advanced — the complete new
// fault state. Step labels the simulation step that observes the new state.
// Harnesses emit one delta after each world step (empty deltas are
// skipped), so a log's anchor snapshots plus the delta tail reconstruct the
// world at any recorded step.
type WorldDelta struct {
	Step int

	// Nodes lists position changes in ascending node order; X[i], Y[i] are
	// node Nodes[i]'s new coordinates.
	Nodes []int32
	X, Y  []float64

	// RangeNodes lists radio-range changes in ascending node order;
	// Ranges[i] is node RangeNodes[i]'s new current range.
	RangeNodes []int32
	Ranges     []float64

	// FaultChanged reports that the fault state below replaces the previous
	// one wholesale (it is a full state, not a diff): dead nodes,
	// out-of-service gateways, and the active partition cut.
	FaultChanged bool
	Dead         []int32
	DownGateways []int32
	Partition    bool
	PartitionX   float64
}

// WorldSink is a Tracer that can additionally absorb world evolution:
// periodic full snapshot anchors (opaque serialised network.Snapshot JSON)
// and per-step world deltas. The binary LogWriter implements it; the
// in-memory Buffer and Counter do not (they keep the event stream alone).
type WorldSink interface {
	Tracer
	// EmitAnchor records a full world snapshot observed at step.
	EmitAnchor(step int, snapshot []byte)
	// EmitWorld records one step's world delta.
	EmitWorld(d WorldDelta)
}

// Counter tallies events by kind without storing them — the cheap tracer
// for tests and statistics.
type Counter struct {
	mu     sync.Mutex
	counts map[Kind]int
}

// NewCounter returns an empty Counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[Kind]int)}
}

// Emit counts the event.
func (c *Counter) Emit(e Event) {
	c.mu.Lock()
	c.counts[e.Kind]++
	c.mu.Unlock()
}

// Count returns how many events of kind were seen.
func (c *Counter) Count(kind Kind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[kind]
}

// Buffer stores every event in memory, for tests and small runs.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (b *Buffer) Emit(e Event) {
	b.mu.Lock()
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// Len returns the number of recorded events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}
