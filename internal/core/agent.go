// Package core implements the paper's contribution: mobile software agents
// that map a wireless network and maintain its routing tables, with the
// cooperation mechanisms the paper studies layered on top — direct
// knowledge exchange when agents meet, and stigmergic footprints that keep
// agents from retracing each other's (and their own) steps.
//
// An Agent is pure state plus a decision rule; the scenario harnesses in
// internal/mapping and internal/routing drive the per-step protocol
// (learn → meet → move → mark / deposit).
package core

import (
	"fmt"

	"repro/internal/knowledge"
	"repro/internal/rng"
	"repro/internal/stigmergy"
)

// Config assembles an Agent.
type Config struct {
	// ID is the agent's index; it also seeds the agent's private RNG
	// stream, so it must be unique within a simulation.
	ID int
	// Start is the node the agent is injected at.
	Start NodeID
	// Kind selects the movement policy.
	Kind PolicyKind
	// NetworkSize is the number of nodes (needed to size knowledge).
	NetworkSize int

	// Stigmergy makes the agent read and write footprints.
	Stigmergy bool
	// ShareTopology lets co-located agents exchange topology knowledge
	// (mapping scenario; all of Minar's cooperative agents do this).
	ShareTopology bool
	// ShareRoutes lets co-located agents adopt the best gateway trail
	// (routing scenario's direct communication).
	ShareRoutes bool

	// VisitCapacity bounds the visit memory (0 = unbounded). The routing
	// scenario's "history size" bounds both this and TrailCapacity.
	VisitCapacity int
	// TrailCapacity bounds the gateway trail (routing scenario).
	TrailCapacity int
	// Epsilon adds Minar's randomness fix: with probability Epsilon the
	// agent moves randomly regardless of policy.
	Epsilon float64

	// Stream is the agent's private randomness. Required.
	Stream *rng.Stream
}

// Agent is one mobile software agent.
type Agent struct {
	ID NodeID
	// At is the node the agent currently occupies.
	At NodeID

	// Topo is the agent's accumulated map (mapping scenario).
	Topo *knowledge.Topology
	// Visits is the agent's movement history.
	Visits *knowledge.Visits
	// Trail is the agent's path back to the last gateway (routing).
	Trail *knowledge.Trail
	// Overhead tallies the work this agent has caused.
	Overhead Overhead

	kind          PolicyKind
	stigmergy     bool
	shareTopology bool
	shareVisits   bool
	shareRoutes   bool
	epsilon       float64
	stream        *rng.Stream
	tieSalt       uint64

	stigBuf []NodeID // scratch for footprint filtering
}

// New validates cfg and builds an agent.
func New(cfg Config) (*Agent, error) {
	a := new(Agent)
	if err := a.Reset(cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset validates cfg and turns a into the agent New(cfg) would build,
// reusing the storage of its visit memory, trail and topology: the reset
// agent behaves exactly like a fresh one (no visit, no trail, no map, no
// merge lineage, zero overhead), so harnesses can recycle agents from run
// to run without allocating. On error a is left unchanged. The zero Agent
// is a valid receiver.
func (a *Agent) Reset(cfg Config) error {
	if cfg.Stream == nil {
		return fmt.Errorf("core: agent %d needs a Stream", cfg.ID)
	}
	if cfg.NetworkSize <= 0 {
		return fmt.Errorf("core: agent %d needs a positive NetworkSize", cfg.ID)
	}
	if int(cfg.Start) < 0 || int(cfg.Start) >= cfg.NetworkSize {
		return fmt.Errorf("core: agent %d start %d outside [0,%d)", cfg.ID, cfg.Start, cfg.NetworkSize)
	}
	switch cfg.Kind {
	case PolicyRandom, PolicyConscientious, PolicySuperConscientious, PolicyOldestNode:
	default:
		return fmt.Errorf("core: agent %d has unknown policy %d", cfg.ID, cfg.Kind)
	}
	if cfg.Epsilon < 0 || cfg.Epsilon > 1 {
		return fmt.Errorf("core: agent %d epsilon %v outside [0,1]", cfg.ID, cfg.Epsilon)
	}
	topo, visits, trail := a.Topo, a.Visits, a.Trail
	if topo == nil {
		topo = knowledge.NewTopology(cfg.NetworkSize)
	} else {
		topo.Reset(cfg.NetworkSize)
	}
	if visits == nil {
		visits = knowledge.NewVisits(cfg.VisitCapacity)
	} else {
		visits.Reset(cfg.VisitCapacity)
	}
	visits.Grow(cfg.NetworkSize)
	if trail == nil {
		trail = knowledge.NewTrail(cfg.TrailCapacity)
	} else {
		trail.Reset(cfg.TrailCapacity)
	}
	*a = Agent{
		ID:            NodeID(cfg.ID),
		At:            cfg.Start,
		Topo:          topo,
		Visits:        visits,
		Trail:         trail,
		kind:          cfg.Kind,
		stigmergy:     cfg.Stigmergy,
		shareTopology: cfg.ShareTopology,
		shareVisits:   cfg.Kind == PolicySuperConscientious,
		shareRoutes:   cfg.ShareRoutes,
		epsilon:       cfg.Epsilon,
		stream:        cfg.Stream,
		tieSalt:       saltFor(cfg.ID),
		stigBuf:       a.stigBuf[:0],
	}
	return nil
}

// saltFor derives an agent's private tie-break salt from its ID
// (SplitMix64 finaliser).
func saltFor(id int) uint64 {
	x := uint64(id)*0x9e3779b97f4a7c15 + 0x1234567
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Kind returns the agent's movement policy.
func (a *Agent) Kind() PolicyKind { return a.kind }

// SharesTopology reports whether the agent exchanges maps when meeting.
func (a *Agent) SharesTopology() bool { return a.shareTopology }

// SharesVisits reports whether meeting merges visit histories (the
// super-conscientious behaviour, and the cause of oldest-node agents
// chasing each other under direct communication).
func (a *Agent) SharesVisits() bool { return a.shareVisits }

// SharesRoutes reports whether the agent adopts peers' best gateway trail.
func (a *Agent) SharesRoutes() bool { return a.shareRoutes }

// EnableVisitSharing turns visit-history merging on or off; the routing
// scenario sets it together with ShareRoutes for oldest-node agents.
func (a *Agent) EnableVisitSharing(on bool) { a.shareVisits = on }

// RecordHere notes the agent stood on its current node at the given step.
func (a *Agent) RecordHere(step int) { a.Visits.Record(a.At, step) }

// LearnNeighbors records the current node's out-edges first-hand.
func (a *Agent) LearnNeighbors(neighbors []NodeID) {
	a.Topo.LearnFirstHand(a.At, neighbors)
}

// Decide picks the next node from candidates (the current node's
// out-neighbours). When the agent is stigmergic and board is non-nil it
// first discards recently footprinted neighbours (falling back to the full
// set if everything is marked) and imprints its own choice before
// returning. An empty candidate set strands the agent for the step and
// returns its current node.
func (a *Agent) Decide(board *stigmergy.Board, step int, candidates []NodeID) NodeID {
	if len(candidates) == 0 {
		return a.At
	}
	cands := candidates
	if a.stigmergy && board != nil {
		a.stigBuf = board.Unmarked(a.At, candidates, a.stigBuf[:0])
		if len(a.stigBuf) > 0 {
			cands = a.stigBuf
		}
	}
	next := a.choose(step, cands)
	if a.stigmergy && board != nil {
		board.Leave(a.At, next, step)
		a.Overhead.MarksLeft++
	}
	return next
}

// MoveTo relocates the agent and updates its trail: arriving on a gateway
// re-anchors the trail, any other node extends it.
func (a *Agent) MoveTo(next NodeID, isGateway bool) {
	if next != a.At {
		a.Overhead.Moves++
	}
	a.At = next
	if isGateway {
		a.Trail.ResetAt(next)
	} else {
		a.Trail.Extend(next)
	}
}

// DepositRoute writes the agent's current gateway route into the table of
// the node it occupies. nbrs holds the current node's out-neighbours —
// the agent can see them by standing there — stamped by the caller, and
// the deposited next hop is the EARLIEST trail node (closest to the
// gateway) among them. That one check does two jobs: it never writes a
// route whose first link is already dead (asymmetric radio ranges make
// the reverse of the walked edge unreliable, especially next to
// long-range gateways), and it shortcuts the agent's wander into the
// shortest route its trail supports. It reports whether an entry was
// offered.
func (a *Agent) DepositRoute(nbrs *NeighborMarks, update func(gw, nextHop NodeID, hops int) bool) bool {
	if !a.Trail.Anchored() {
		return false
	}
	if a.Trail.Hops() == 0 {
		// Standing on the gateway itself: nothing to write.
		return false
	}
	for i := 0; i < a.Trail.Len()-1; i++ {
		hop := a.Trail.At(i)
		if !nbrs.Has(hop) {
			continue
		}
		if update(a.Trail.Gateway(), hop, i+1) {
			a.Overhead.RouteDeposits++
		}
		return true
	}
	return false
}

// NeighborMarks is a node-indexed epoch array holding one node's
// out-neighbour set: Stamp costs the out-list's length, and each Has
// lookup is one load. Reset sizes it for a world of n nodes; a stamp
// stays valid until the next Stamp or Reset.
type NeighborMarks struct {
	mark  []uint32
	epoch uint32
}

// Reset sizes m for nodes [0, n) and empties it.
func (m *NeighborMarks) Reset(n int) {
	if cap(m.mark) < n {
		m.mark = make([]uint32, n)
	}
	m.mark = m.mark[:n]
	clear(m.mark)
	m.epoch = 0
}

// Stamp makes neighbors the current set.
func (m *NeighborMarks) Stamp(neighbors []NodeID) {
	m.epoch++
	if m.epoch == 0 { // wrapped: old stamps could alias the new epoch
		clear(m.mark)
		m.epoch = 1
	}
	for _, v := range neighbors {
		m.mark[v] = m.epoch
	}
}

// Has reports whether v is in the current set.
func (m *NeighborMarks) Has(v NodeID) bool { return m.mark[v] == m.epoch }
