package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/stigmergy"
)

// randomConfig draws an agent configuration over an n-node network.
func randomConfig(r *rng.Stream, id, n int) Config {
	kinds := []PolicyKind{PolicyRandom, PolicyConscientious, PolicySuperConscientious, PolicyOldestNode}
	eps := 0.0
	if r.Bool(0.3) {
		eps = 0.25
	}
	return Config{
		ID:            id,
		Start:         NodeID(r.Intn(n)),
		Kind:          kinds[r.Intn(len(kinds))],
		NetworkSize:   n,
		Stigmergy:     r.Bool(0.5),
		ShareTopology: r.Bool(0.5),
		ShareRoutes:   r.Bool(0.5),
		VisitCapacity: r.Intn(9), // 0 = unbounded
		TrailCapacity: 1 + r.Intn(8),
		Epsilon:       eps,
	}
}

// agentWorld is one side of the reset-vs-fresh comparison: the agent under
// test, the peers it meets, and a footprint board.
type agentWorld struct {
	a     *Agent
	peers []*Agent
	board *stigmergy.Board
	marks NeighborMarks
}

// newPeers builds peers from fixed configurations; each side gets its own
// copies with their own streams.
func newPeers(t *testing.T, cfgs []Config, seed uint64) []*Agent {
	t.Helper()
	peers := make([]*Agent, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Stream = rng.New(seed + uint64(i))
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	return peers
}

// randomNodes draws up to k distinct nodes below n, ascending.
func randomNodes(r *rng.Stream, n, k int) []NodeID {
	var out []NodeID
	for u := 0; u < n && len(out) < k; u++ {
		if r.Bool(float64(k) / float64(n)) {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// step applies one random operation, drawn from ops, to the world and
// returns a description of what it observed; both sides of the comparison
// must describe every step identically.
func (w *agentWorld) step(ops *rng.Stream, step, n int) string {
	a := w.a
	switch ops.Intn(7) {
	case 0:
		a.RecordHere(step)
		return "record"
	case 1:
		a.Visits.Record(NodeID(ops.Intn(n)), step)
		return "record-other"
	case 2:
		var board *stigmergy.Board
		if ops.Bool(0.5) {
			board = w.board
		}
		return fmt.Sprint("decide ", a.Decide(board, step, randomNodes(ops, n, 4)))
	case 3:
		a.MoveTo(NodeID(ops.Intn(n)), ops.Bool(0.2))
		return "move"
	case 4:
		nbrs := randomNodes(ops, n, 5)
		a.LearnNeighbors(nbrs)
		w.marks.Stamp(nbrs)
		offered := a.DepositRoute(&w.marks, func(gw, hop NodeID, hops int) bool { return hops%2 == 0 })
		return fmt.Sprint("learn+deposit ", offered)
	case 5:
		p := w.peers[ops.Intn(len(w.peers))]
		ExchangeRoutes([]*Agent{a, p})
		return "exchange-routes"
	default:
		p := w.peers[ops.Intn(len(w.peers))]
		ExchangeTopology([]*Agent{p, a})
		return "exchange-topology"
	}
}

// sameAgent compares everything an agent exposes.
func sameAgent(t *testing.T, when string, a, b *Agent, n int) {
	t.Helper()
	if a.ID != b.ID || a.At != b.At || a.Overhead != b.Overhead || a.tieSalt != b.tieSalt ||
		a.Kind() != b.Kind() || a.SharesTopology() != b.SharesTopology() ||
		a.SharesVisits() != b.SharesVisits() || a.SharesRoutes() != b.SharesRoutes() {
		t.Fatalf("%s: agent state differs: %+v vs %+v", when, a, b)
	}
	if a.Visits.Len() != b.Visits.Len() || a.Visits.Capacity() != b.Visits.Capacity() {
		t.Fatalf("%s: visit memory holds %d/%d vs %d/%d", when, a.Visits.Len(), a.Visits.Capacity(), b.Visits.Len(), b.Visits.Capacity())
	}
	for u := 0; u < n+8; u++ {
		sa, oka := a.Visits.Last(NodeID(u))
		sb, okb := b.Visits.Last(NodeID(u))
		if sa != sb || oka != okb {
			t.Fatalf("%s: node %d last visit (%d,%v) vs (%d,%v)", when, u, sa, oka, sb, okb)
		}
	}
	if !reflect.DeepEqual(a.Trail.Nodes(), b.Trail.Nodes()) || a.Trail.Anchored() != b.Trail.Anchored() ||
		a.Trail.Capacity() != b.Trail.Capacity() {
		t.Fatalf("%s: trail %v/%v vs %v/%v", when, a.Trail.Nodes(), a.Trail.Anchored(), b.Trail.Nodes(), b.Trail.Anchored())
	}
	if a.Topo.N() != b.Topo.N() || a.Topo.KnownCount() != b.Topo.KnownCount() {
		t.Fatalf("%s: topology knows %d of %d vs %d of %d", when, a.Topo.KnownCount(), a.Topo.N(), b.Topo.KnownCount(), b.Topo.N())
	}
	for u := 0; u < n; u++ {
		if a.Topo.SourceOf(NodeID(u)) != b.Topo.SourceOf(NodeID(u)) ||
			fmt.Sprint(a.Topo.Neighbors(NodeID(u))) != fmt.Sprint(b.Topo.Neighbors(NodeID(u))) {
			t.Fatalf("%s: topology record of node %d differs", when, u)
		}
	}
}

// TestAgentResetMatchesFresh is the property test of Agent.Reset: an agent
// that lived a random life under another configuration — visits, trail,
// map, meetings that left it in a merge lineage with its peers — and is
// then reset must behave exactly like New(cfg) under the same random
// sequence of records, decisions, moves, deposits and meetings with the
// same peers.
func TestAgentResetMatchesFresh(t *testing.T) {
	for trial := uint64(0); trial < 300; trial++ {
		r := rng.New(trial)
		n := 5 + r.Intn(40)
		preN := n
		if r.Bool(0.3) {
			preN = n + 1 + r.Intn(20) // the previous life ran on a larger network
		}
		// Peers share everything, and half the agents merge visits too, so
		// meetings often leave the agent and a peer in one merge lineage.
		peerCfgs := make([]Config, 3)
		for i := range peerCfgs {
			peerCfgs[i] = randomConfig(r, 100+i, n)
			peerCfgs[i].Kind, peerCfgs[i].ShareRoutes, peerCfgs[i].ShareTopology = PolicySuperConscientious, true, true
		}
		pre := randomConfig(r, 7, preN)
		cfg := randomConfig(r, 3, n)
		if r.Bool(0.5) {
			pre.Kind, pre.ShareRoutes = PolicySuperConscientious, true
		}
		if r.Bool(0.5) {
			cfg.Kind, cfg.ShareRoutes = PolicySuperConscientious, true
		}
		opsSeed := r.Uint64()

		// Both sides live the same previous life, so their peers (and the
		// lineage tokens the peers share with the agent) stay alike.
		sides := make([]*agentWorld, 2)
		for s := range sides {
			pc := pre
			pc.Stream = rng.New(trial + 1)
			a, err := New(pc)
			if err != nil {
				t.Fatal(err)
			}
			w := &agentWorld{a: a, board: stigmergy.NewBoard(max(n, preN), 2)}
			w.marks.Reset(max(n, preN))
			if preN == n {
				w.peers = newPeers(t, peerCfgs, 50)
			} else {
				w.peers = newPeers(t, []Config{randomConfig(rng.New(trial+2), 200, preN)}, 60)
			}
			w.a.Visits.Grow(preN)
			ops := rng.New(opsSeed ^ 1)
			for step := 0; step < 40; step++ {
				w.step(ops, step, preN)
			}
			sides[s] = w
		}
		cfgA, cfgB := cfg, cfg
		cfgA.Stream, cfgB.Stream = rng.New(trial+3), rng.New(trial+3)
		if err := sides[0].a.Reset(cfgA); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfgB)
		if err != nil {
			t.Fatal(err)
		}
		sides[1].a = fresh
		if preN != n {
			for s := range sides {
				sides[s].peers = newPeers(t, peerCfgs, 50)
			}
		}
		sameAgent(t, fmt.Sprintf("trial %d after reset", trial), sides[0].a, sides[1].a, n)
		opsA, opsB := rng.New(opsSeed), rng.New(opsSeed)
		for step := 0; step < 80; step++ {
			da, db := sides[0].step(opsA, step, n), sides[1].step(opsB, step, n)
			when := fmt.Sprintf("trial %d step %d (%s)", trial, step, da)
			if da != db {
				t.Fatalf("%s: fresh agent saw %s", when, db)
			}
			sameAgent(t, when, sides[0].a, sides[1].a, n)
			for i := range sides[0].peers {
				sameAgent(t, when+" peer", sides[0].peers[i], sides[1].peers[i], n)
			}
		}
	}
}

// TestAgentResetRejectsBadConfig pins that Reset validates like New and
// leaves the agent untouched on error.
func TestAgentResetRejectsBadConfig(t *testing.T) {
	a := newAgent(t, Config{ID: 4, NetworkSize: 10, Start: 2, VisitCapacity: 3})
	a.RecordHere(5)
	before := *a
	if err := a.Reset(Config{ID: 1, NetworkSize: 10, Kind: PolicyRandom}); err == nil {
		t.Fatal("Reset accepted a config without a Stream")
	}
	if !reflect.DeepEqual(*a, before) {
		t.Fatal("a rejected Reset changed the agent")
	}
}

// TestAgentResetZeroAllocs pins that resetting an agent that already holds
// storage for the network allocates nothing — the reason routing runs
// recycle their agents.
func TestAgentResetZeroAllocs(t *testing.T) {
	cfg := Config{ID: 2, NetworkSize: 250, Kind: PolicyOldestNode, VisitCapacity: 32, TrailCapacity: 32,
		ShareRoutes: true, Stream: rng.New(9)}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 100; s++ {
		a.MoveTo(NodeID(s%250), s%17 == 0)
		a.RecordHere(s)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := a.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 40; s++ {
			a.MoveTo(NodeID(s), s == 0)
			a.RecordHere(s)
		}
	}); got != 0 {
		t.Fatalf("reset and refill allocate %.1f times per run, want 0", got)
	}
}
