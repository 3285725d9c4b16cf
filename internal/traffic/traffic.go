// Package traffic validates agent-built routing tables with actual
// packets: a generator injects packets at random non-gateway nodes and a
// forwarder moves each packet one hop per step along the current best
// table entry while the network keeps moving underneath it. The delivery
// ratio is the ground-truth check on the connectivity metric — a table
// chain that looks valid must actually carry packets.
package traffic

import (
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/routing"
)

// NodeID aliases network.NodeID.
type NodeID = network.NodeID

// DropReason classifies packet failures.
type DropReason int

const (
	// DropNoRoute: the packet sat on a node with no usable table entry.
	DropNoRoute DropReason = iota + 1
	// DropDeadLink: the best entry pointed across a link that no longer
	// exists.
	DropDeadLink
	// DropLoop: the packet revisited a node.
	DropLoop
	// DropTTL: the hop budget ran out.
	DropTTL
)

// Stats accumulates traffic outcomes.
type Stats struct {
	Injected  int
	Delivered int
	Dropped   map[DropReason]int
	HopsSum   int // total hops over delivered packets
	AgeSum    int // total steps in flight over delivered packets
}

// DeliveryRatio returns delivered / injected (1 if nothing was injected
// and nothing is pending — vacuous success — otherwise the honest ratio
// counting still-pending packets as undelivered).
func (s Stats) DeliveryRatio() float64 {
	if s.Injected == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Injected)
}

// MeanHops returns the average path length of delivered packets.
func (s Stats) MeanHops() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.HopsSum) / float64(s.Delivered)
}

type packet struct {
	at      NodeID
	hops    int
	born    int
	ttl     int
	visited map[NodeID]bool
}

// Gen injects and forwards packets. Construct with NewGen; plug its Step
// into routing.Scenario.Observer.
type Gen struct {
	// PerStep is how many packets to inject each step.
	PerStep int
	// TTL is the per-packet hop budget.
	TTL int
	// WarmupSteps suppresses injection early on while tables are empty.
	WarmupSteps int

	stream  *rng.Stream
	flight  []packet
	stats   Stats
	scratch []packet
}

// NewGen returns a generator injecting perStep packets per step with the
// given TTL (<=0 means 64), skipping the first warmup steps.
func NewGen(perStep, ttl, warmup int, stream *rng.Stream) *Gen {
	if ttl <= 0 {
		ttl = 64
	}
	return &Gen{
		PerStep:     perStep,
		TTL:         ttl,
		WarmupSteps: warmup,
		stream:      stream,
		stats:       Stats{Dropped: map[DropReason]int{}},
	}
}

// Stats returns the accumulated outcomes so far.
func (g *Gen) Stats() Stats { return g.stats }

// Step injects new packets and forwards every in-flight packet one hop
// along the node's best table entry. It is shaped to be used as a
// routing.Scenario Observer; packets read only the tables, so it ignores
// the step's measurement and reach view.
func (g *Gen) Step(step int, w *network.World, tables *routing.Tables, _ routing.Measurement, _ func(NodeID) bool) {
	// Forward first so a packet needs at least one step per hop.
	g.scratch = g.scratch[:0]
	for _, p := range g.flight {
		e, ok := tables.Best(p.at)
		if !ok {
			g.stats.Dropped[DropNoRoute]++
			continue
		}
		if !w.Topology().HasEdge(p.at, e.NextHop) {
			g.stats.Dropped[DropDeadLink]++
			continue
		}
		p.at = e.NextHop
		p.hops++
		if w.IsGateway(p.at) {
			g.stats.Delivered++
			g.stats.HopsSum += p.hops
			g.stats.AgeSum += step - p.born
			continue
		}
		if p.visited[p.at] {
			g.stats.Dropped[DropLoop]++
			continue
		}
		p.visited[p.at] = true
		if p.hops >= p.ttl {
			g.stats.Dropped[DropTTL]++
			continue
		}
		g.scratch = append(g.scratch, p)
	}
	g.flight, g.scratch = g.scratch, g.flight
	if step < g.WarmupSteps {
		return
	}
	for i := 0; i < g.PerStep; i++ {
		src := NodeID(g.stream.Intn(w.N()))
		if w.IsGateway(src) {
			continue // gateways have nothing to send upstream
		}
		g.stats.Injected++
		g.flight = append(g.flight, packet{
			at:      src,
			born:    step,
			ttl:     g.TTL,
			visited: map[NodeID]bool{src: true},
		})
	}
}
