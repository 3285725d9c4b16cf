package network_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/parallel"
	"repro/internal/routing"
)

// TestUntracedReplayRunDecodesNoGeometry pins what lazy geometry saves: an
// untraced routing run on a replay world reads only its out-lists and
// fault masks, so it decodes none of the geometry bodies it steps over,
// with the measuring helper off and on.
func TestUntracedReplayRunDecodesNoGeometry(t *testing.T) {
	const n, steps = 120, 100
	gateways := []network.NodeID{0, 40, 80}
	sched := network.FaultSchedules(n, gateways, steps)["preset-churn"]
	src := network.NewTrajectorySource(steps, 0, sched, func() (*network.World, error) {
		return network.BuildFaultWorld(t, n, gateways, 3), nil
	})
	sc := routing.Scenario{Agents: 30, Kind: core.PolicyOldestNode, Communicate: true, Steps: steps, Faults: sched}
	old := parallel.Budget()
	defer parallel.SetBudget(old)
	for _, budget := range []int{0, 1} {
		parallel.SetBudget(budget)
		w, err := src.WorldFor(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := routing.Run(w, sc, 5); err != nil {
			t.Fatal(err)
		}
		stepped, decoded := network.ReplayGeometry(w)
		if stepped == 0 {
			t.Fatalf("budget %d: the run stepped over no record", budget)
		}
		if decoded != 0 {
			t.Errorf("budget %d: an untraced run decoded %d of the %d geometry bodies it stepped over", budget, decoded, stepped)
		}
	}
}
