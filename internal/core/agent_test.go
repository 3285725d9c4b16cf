package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/stigmergy"
)

func newAgent(t *testing.T, cfg Config) *Agent {
	t.Helper()
	if cfg.Stream == nil {
		cfg.Stream = rng.New(uint64(cfg.ID) + 1000)
	}
	if cfg.NetworkSize == 0 {
		cfg.NetworkSize = 10
	}
	if cfg.Kind == 0 {
		cfg.Kind = PolicyRandom
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	valid := Config{Kind: PolicyRandom, NetworkSize: 5, Stream: rng.New(1)}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil stream", func(c *Config) { c.Stream = nil }},
		{"zero network", func(c *Config) { c.NetworkSize = 0 }},
		{"start out of range", func(c *Config) { c.Start = 7 }},
		{"negative start", func(c *Config) { c.Start = -1 }},
		{"unknown policy", func(c *Config) { c.Kind = 0 }},
		{"bad epsilon", func(c *Config) { c.Epsilon = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	if _, err := New(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestPolicyKindString(t *testing.T) {
	tests := []struct {
		k    PolicyKind
		want string
	}{
		{PolicyRandom, "random"},
		{PolicyConscientious, "conscientious"},
		{PolicySuperConscientious, "super-conscientious"},
		{PolicyOldestNode, "oldest-node"},
		{PolicyKind(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Fatalf("String(%d) = %q", tt.k, got)
		}
	}
}

func TestSuperConscientiousSharesVisits(t *testing.T) {
	super := newAgent(t, Config{ID: 1, Kind: PolicySuperConscientious})
	if !super.SharesVisits() {
		t.Fatal("super-conscientious must share visits")
	}
	con := newAgent(t, Config{ID: 2, Kind: PolicyConscientious})
	if con.SharesVisits() {
		t.Fatal("conscientious must not share visits")
	}
	con.EnableVisitSharing(true)
	if !con.SharesVisits() {
		t.Fatal("EnableVisitSharing failed")
	}
}

func TestDecideStrandedStays(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Start: 3})
	if next := a.Decide(nil, 0, nil); next != 3 {
		t.Fatalf("stranded agent moved to %d", next)
	}
}

func TestDecideRandomUniform(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Kind: PolicyRandom})
	counts := map[NodeID]int{}
	cands := []NodeID{1, 2, 3}
	for i := 0; i < 3000; i++ {
		counts[a.Decide(nil, i, cands)]++
	}
	for _, c := range cands {
		if counts[c] < 800 {
			t.Fatalf("candidate %d picked only %d/3000", c, counts[c])
		}
	}
}

func TestDecideConscientiousPrefersUnvisited(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Kind: PolicyConscientious})
	a.Visits.Record(1, 5)
	a.Visits.Record(2, 9)
	// 3 is unvisited: must always win.
	for i := 0; i < 50; i++ {
		if next := a.Decide(nil, 10, []NodeID{1, 2, 3}); next != 3 {
			t.Fatalf("picked visited node %d over unvisited", next)
		}
	}
}

func TestDecideConscientiousPrefersOldest(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Kind: PolicyConscientious})
	a.Visits.Record(1, 5)
	a.Visits.Record(2, 9)
	a.Visits.Record(3, 7)
	for i := 0; i < 50; i++ {
		if next := a.Decide(nil, 10, []NodeID{1, 2, 3}); next != 1 {
			t.Fatalf("picked %d, want oldest-visited 1", next)
		}
	}
}

func TestDecideConscientiousTieBreaks(t *testing.T) {
	// Equal-recency ties resolve via a salted hash. Agents sharing salt
	// and history (the post-merge state behind the paper's Fig 5 and
	// Fig 11 pathologies) must choose identically; independent agents must
	// not herd; and the choice must vary across steps so no fixed
	// preference biases the walk.
	a := newAgent(t, Config{ID: 1, Kind: PolicyConscientious})
	twin := newAgent(t, Config{ID: 1, Kind: PolicyConscientious}) // same salt
	other := newAgent(t, Config{ID: 2, Kind: PolicyConscientious})
	cands := []NodeID{5, 4, 7}
	picks := map[NodeID]bool{}
	diverged := false
	for step := 0; step < 50; step++ {
		pa := a.Decide(nil, step, cands)
		if pt := twin.Decide(nil, step, cands); pt != pa {
			t.Fatalf("step %d: same-salt agents diverged: %d vs %d", step, pa, pt)
		}
		if other.Decide(nil, step, cands) != pa {
			diverged = true
		}
		picks[pa] = true
	}
	if len(picks) < 2 {
		t.Fatalf("tie-break shows fixed preference: %v", picks)
	}
	if !diverged {
		t.Fatal("different-salt agents never diverged over 50 steps")
	}
}

func TestSaltUnifiedOnVisitMerge(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Kind: PolicySuperConscientious, ShareTopology: true})
	b := newAgent(t, Config{ID: 2, Kind: PolicySuperConscientious, ShareTopology: true})
	if a.tieSalt == b.tieSalt {
		t.Fatal("fresh agents should have distinct salts")
	}
	ExchangeTopology([]*Agent{a, b})
	if a.tieSalt != b.tieSalt {
		t.Fatal("visit merge must unify salts")
	}
	// Conscientious (non-visit-sharing) agents keep their own salts.
	c := newAgent(t, Config{ID: 3, Kind: PolicyConscientious, ShareTopology: true})
	d := newAgent(t, Config{ID: 4, Kind: PolicyConscientious, ShareTopology: true})
	ExchangeTopology([]*Agent{c, d})
	if c.tieSalt == d.tieSalt {
		t.Fatal("non-visit-sharers must keep private salts")
	}
}

func TestDecideForgottenCountsAsUnvisited(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Kind: PolicyOldestNode, VisitCapacity: 2})
	a.Visits.Record(1, 1)
	a.Visits.Record(2, 2)
	a.Visits.Record(3, 3) // evicts node 1 from the bounded memory
	// Node 1 is now "not remembered" and must be preferred over 2 and 3.
	for i := 0; i < 30; i++ {
		if next := a.Decide(nil, 4, []NodeID{1, 2, 3}); next != 1 {
			t.Fatalf("forgotten node not preferred: %d", next)
		}
	}
}

func TestEpsilonForcesRandomness(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Kind: PolicyConscientious, Epsilon: 1})
	a.Visits.Record(1, 5)
	// With epsilon=1 every move is random, so visited node 1 is sometimes
	// chosen even though 2 is unvisited.
	saw1 := false
	for i := 0; i < 200 && !saw1; i++ {
		saw1 = a.Decide(nil, 10, []NodeID{1, 2}) == 1
	}
	if !saw1 {
		t.Fatal("epsilon=1 never produced a random pick")
	}
}

func TestDecideStigmergyAvoidsMarked(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Start: 0, Kind: PolicyRandom, Stigmergy: true})
	for i := 0; i < 50; i++ {
		// Fresh board each trial: the agent's own footprint from a previous
		// decision must not pollute the check.
		board := stigmergy.NewBoard(10, 3)
		board.Leave(0, 1, 0)
		board.Leave(0, 2, 0)
		if next := a.Decide(board, 1, []NodeID{1, 2, 3}); next != 3 {
			t.Fatalf("stigmergic agent followed a mark to %d", next)
		}
	}
}

func TestDecideStigmergyFallsBackWhenAllMarked(t *testing.T) {
	board := stigmergy.NewBoard(10, 3)
	a := newAgent(t, Config{ID: 1, Start: 0, Kind: PolicyRandom, Stigmergy: true})
	board.Leave(0, 1, 0)
	board.Leave(0, 2, 0)
	next := a.Decide(board, 1, []NodeID{1, 2})
	if next != 1 && next != 2 {
		t.Fatalf("fallback pick = %d", next)
	}
}

func TestDecideStigmergyLeavesMark(t *testing.T) {
	board := stigmergy.NewBoard(10, 3)
	a := newAgent(t, Config{ID: 1, Start: 0, Kind: PolicyRandom, Stigmergy: true})
	next := a.Decide(board, 5, []NodeID{1, 2, 3})
	if !board.IsMarked(0, next) {
		t.Fatal("no footprint left")
	}
	if a.Overhead.MarksLeft != 1 {
		t.Fatalf("MarksLeft = %d", a.Overhead.MarksLeft)
	}
}

func TestNonStigmergicIgnoresBoard(t *testing.T) {
	board := stigmergy.NewBoard(10, 3)
	board.Leave(0, 1, 0)
	a := newAgent(t, Config{ID: 1, Start: 0, Kind: PolicyRandom})
	saw1 := false
	for i := 0; i < 200 && !saw1; i++ {
		saw1 = a.Decide(board, 1, []NodeID{1, 2}) == 1
	}
	if !saw1 {
		t.Fatal("non-stigmergic agent appears to respect marks")
	}
	if a.Overhead.MarksLeft != 0 {
		t.Fatal("non-stigmergic agent left marks")
	}
}

func TestMoveToTrailHandling(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Start: 0, TrailCapacity: 8})
	a.MoveTo(1, false)
	if a.Trail.Anchored() {
		t.Fatal("trail anchored without gateway visit")
	}
	a.MoveTo(2, true) // gateway
	if !a.Trail.Anchored() || a.Trail.Gateway() != 2 || a.Trail.Hops() != 0 {
		t.Fatal("gateway visit did not anchor trail")
	}
	a.MoveTo(3, false)
	a.MoveTo(4, false)
	if a.Trail.Hops() != 2 {
		t.Fatalf("hops = %d", a.Trail.Hops())
	}
	if a.Overhead.Moves != 4 {
		t.Fatalf("Moves = %d", a.Overhead.Moves)
	}
	// Staying put does not count as a move.
	a.MoveTo(4, false)
	if a.Overhead.Moves != 4 {
		t.Fatal("self-move counted")
	}
}

func TestDepositRoute(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Start: 0, TrailCapacity: 8})
	var gotGW, gotHop NodeID
	var gotHops int
	update := func(gw, hop NodeID, hops int) bool {
		gotGW, gotHop, gotHops = gw, hop, hops
		return true
	}
	var nbrs NeighborMarks
	nbrs.Reset(10)
	stamped := func(neighbors ...NodeID) *NeighborMarks {
		nbrs.Stamp(neighbors)
		return &nbrs
	}
	all := []NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	// Unanchored: nothing to deposit.
	if a.DepositRoute(stamped(all...), update) {
		t.Fatal("unanchored agent deposited")
	}
	a.MoveTo(5, true) // gateway
	// Standing on gateway: nothing to deposit.
	if a.DepositRoute(stamped(all...), update) {
		t.Fatal("deposited while on gateway")
	}
	a.MoveTo(6, false)
	if !a.DepositRoute(stamped(all...), update) {
		t.Fatal("deposit failed")
	}
	if gotGW != 5 || gotHop != 5 || gotHops != 1 {
		t.Fatalf("deposit = gw%d hop%d hops%d", gotGW, gotHop, gotHops)
	}
	a.MoveTo(7, false)
	// Node 7 is adjacent to the gateway itself, so the deposit shortcuts
	// straight to it.
	a.DepositRoute(stamped(all...), update)
	if gotGW != 5 || gotHop != 5 || gotHops != 1 {
		t.Fatalf("second deposit = gw%d hop%d hops%d", gotGW, gotHop, gotHops)
	}
	// With the gateway out of radio range, the next trail node is used.
	a.DepositRoute(stamped(6, 9), update)
	if gotHop != 6 || gotHops != 2 {
		t.Fatalf("fallback deposit = gw%d hop%d hops%d", gotGW, gotHop, gotHops)
	}
	// With no trail node in range, nothing is offered — the previous
	// stamp's members no longer count.
	if a.DepositRoute(stamped(9), update) {
		t.Fatal("deposited with no reachable trail node")
	}
	if a.Overhead.RouteDeposits != 3 {
		t.Fatalf("RouteDeposits = %d", a.Overhead.RouteDeposits)
	}
	// Rejected updates still count as offers but not deposits.
	before := a.Overhead.RouteDeposits
	if !a.DepositRoute(stamped(all...), func(NodeID, NodeID, int) bool { return false }) {
		t.Fatal("offer should be reported")
	}
	if a.Overhead.RouteDeposits != before {
		t.Fatal("rejected update counted as deposit")
	}
}

// TestNeighborMarksEpochWrap checks that a stamp taken after the epoch
// counter wraps cannot alias marks left by earlier stamps.
func TestNeighborMarksEpochWrap(t *testing.T) {
	var m NeighborMarks
	m.Reset(4)
	m.Stamp([]NodeID{1})
	m.epoch = math.MaxUint32
	m.Stamp([]NodeID{2})
	if m.Has(1) || !m.Has(2) {
		t.Fatalf("after wrap: Has(1)=%v Has(2)=%v, want false true", m.Has(1), m.Has(2))
	}
}

func TestLearnNeighborsAndRecordHere(t *testing.T) {
	a := newAgent(t, Config{ID: 1, Start: 3, Kind: PolicyConscientious})
	a.LearnNeighbors([]NodeID{4, 5})
	if !a.Topo.Knows(3) || len(a.Topo.Neighbors(3)) != 2 {
		t.Fatal("LearnNeighbors failed")
	}
	a.RecordHere(9)
	if s, ok := a.Visits.Last(3); !ok || s != 9 {
		t.Fatal("RecordHere failed")
	}
}

func TestAgentDeterminism(t *testing.T) {
	run := func() []NodeID {
		a := newAgent(t, Config{ID: 7, Kind: PolicyConscientious, Stream: rng.New(55)})
		var picks []NodeID
		for i := 0; i < 100; i++ {
			next := a.Decide(nil, i, []NodeID{1, 2, 3, 4})
			picks = append(picks, next)
			a.MoveTo(next, false)
			a.RecordHere(i)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("agent behaviour diverged at step %d", i)
		}
	}
}

// TestRoutingAgentAllocBudgetLargeNetwork bounds what one routing agent
// costs on a 100000-node network: building it and driving it through 300
// moves with visit recording allocates under 1 MB. Routing agents never
// learn topology, so the neighbour-list index must stay unallocated, and
// the visit memory is one int32 per node.
func TestRoutingAgentAllocBudgetLargeNetwork(t *testing.T) {
	const n, steps, budget = 100000, 300, 1 << 20
	walk := rng.New(17)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := New(Config{
		ID: 3, Start: NodeID(walk.Intn(n)), Kind: PolicyOldestNode, NetworkSize: n,
		ShareRoutes: true, VisitCapacity: 32, TrailCapacity: 32, Stream: rng.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		a.RecordHere(step)
		a.MoveTo(NodeID(walk.Intn(n)), step%50 == 0)
	}
	a.RecordHere(steps)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("agent on a %d-node network allocated %d bytes over %d steps, budget %d",
			n, got, steps, budget)
	}
	if a.Visits.Len() != 32 || a.Topo.KnownCount() != 0 {
		t.Fatalf("visits %d, known %d: want a full 32-entry memory and no topology",
			a.Visits.Len(), a.Topo.KnownCount())
	}
}
