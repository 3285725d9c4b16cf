package routing

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/radio"
)

// TestDyingNetworkConnectivityCollapses: when every non-gateway battery
// drains to nothing, connectivity must fall to zero and the run must end
// cleanly.
func TestDyingNetworkConnectivityCollapses(t *testing.T) {
	w, err := netgen.Generate(netgen.Spec{
		N: 60, TargetEdges: 420, ArenaSide: 45, RangeSpread: 0.2,
		BatteryFraction: 1, DecayPerStep: 0.02, FloorFraction: 0,
		Gateways: 4, RangeBoost: 1.5, MaxTries: 64,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, Scenario{Agents: 20, Kind: core.PolicyOldestNode, Steps: 150}, 3)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Connectivity[len(res.Connectivity)-1]
	if last > 0.05 {
		t.Fatalf("dead network still connected: %v", last)
	}
	peak := 0.0
	for _, v := range res.Connectivity {
		peak = math.Max(peak, v)
	}
	if peak < 0.1 {
		t.Fatalf("network never connected at all: peak %v", peak)
	}
}

// TestSingleAgentRouting: one agent is a legal population.
func TestSingleAgentRouting(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, Scenario{Agents: 1, Kind: core.PolicyOldestNode, Steps: 150}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean <= 0 {
		t.Fatalf("single agent achieved no connectivity: %v", res.Mean)
	}
}

// TestMinimumHistory: history below the trail minimum is raised, not
// rejected; the agent can still deposit one-hop routes.
func TestMinimumHistory(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, Scenario{Agents: 30, Kind: core.PolicyOldestNode,
		Steps: 150, HistorySize: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead.RouteDeposits == 0 {
		t.Fatal("history-1 agents never deposited")
	}
}

// TestIsolatedGateway: a gateway no agent can reach contributes nothing
// but breaks nothing.
func TestIsolatedGateway(t *testing.T) {
	pos := []geom.Point{
		{X: 0, Y: 0}, {X: 8, Y: 0}, {X: 16, Y: 0}, // chain with gateway 0
		{X: 200, Y: 0}, // isolated gateway
	}
	radios := []radio.Radio{radio.New(9), radio.New(9), radio.New(9), radio.New(9)}
	movers := []mobility.Mover{mobility.Static{}, mobility.Static{}, mobility.Static{}, mobility.Static{}}
	w, err := network.NewWorld(network.Config{
		Arena:     geom.Rect{MinX: 0, MinY: -1, MaxX: 250, MaxY: 1},
		Positions: pos, Radios: radios, Movers: movers,
		Gateways: []NodeID{0, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Several agents: ones injected on the isolated gateway are stranded
	// there forever, so the test needs survivors on the chain side.
	res, err := Run(w, Scenario{Agents: 6, Kind: core.PolicyOldestNode, Steps: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1 and 2 can be served via gateway 0: connectivity 1 among the
	// two non-gateway nodes is reachable.
	if res.Mean < 0.5 {
		t.Fatalf("reachable side under-served: %v", res.Mean)
	}
}

// TestObserverReceivesEveryStep: the observer hook fires exactly once per
// step with live tables.
func TestObserverReceivesEveryStep(t *testing.T) {
	w, err := netgen.Generate(testSpec(), 13)
	if err != nil {
		t.Fatal(err)
	}
	var steps []int
	sc := Scenario{Agents: 10, Kind: core.PolicyOldestNode, Steps: 50,
		Observer: func(step int, w *network.World, ts *Tables, _ Measurement, reached func(NodeID) bool) {
			steps = append(steps, step)
			if ts == nil || w == nil || reached == nil {
				t.Fatal("nil observer arguments")
			}
		}}
	if _, err := Run(w, sc, 2); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 50 {
		t.Fatalf("observer fired %d times", len(steps))
	}
	for i, s := range steps {
		if s != i {
			t.Fatalf("observer steps out of order: %v", steps[:i+1])
		}
	}
}
