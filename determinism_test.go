// Determinism regression tests: each pins the exact Result of one seeded
// run — finishing time, window statistics to full float precision, and a
// position-weighted checksum of every per-step series. The hot-path
// optimisations (reusable CSR topology, scratch-buffered connectivity,
// pooled meetings) must preserve these values bit for bit; the pins were
// recorded on the pre-optimisation implementation, so a pass proves the
// rewrite changes nothing observable.
package agentmesh_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	agentmesh "repro"
	"repro/internal/netgen"
	"repro/internal/parallel"
	"repro/internal/replay"
	"repro/internal/trace"
)

// pinF64 asserts got matches the pinned value exactly (by bit pattern, so
// NaN pins would also compare equal).
func pinF64(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s = %.17g (bits %#x), pinned %.17g (bits %#x)",
			name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// weightedSum collapses a per-step series into one order-sensitive value:
// any change to any step, or to the series length, moves it.
func weightedSum(xs []float64) float64 {
	var sum float64
	for i, x := range xs {
		sum += x * float64(i+1)
	}
	return sum
}

func TestMappingResultPinned(t *testing.T) {
	w, err := agentmesh.MappingNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := agentmesh.RunMapping(w, agentmesh.MappingScenario{
		Agents: 15, Kind: agentmesh.PolicyConscientious, Cooperate: true,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("pinned mapping run did not finish")
	}
	if res.FinishStep != 439 {
		t.Errorf("FinishStep = %d, pinned 439", res.FinishStep)
	}
	if len(res.Curve) != 439 {
		t.Errorf("len(Curve) = %d, pinned 439", len(res.Curve))
	}
	pinF64(t, "Curve[last]", res.Curve[len(res.Curve)-1], 1.0)
	if res.Overhead.Moves != 6570 {
		t.Errorf("Overhead.Moves = %d, pinned 6570", res.Overhead.Moves)
	}
	if res.Overhead.Meetings != 305 {
		t.Errorf("Overhead.Meetings = %d, pinned 305", res.Overhead.Meetings)
	}
	if res.Overhead.TopoRecordsReceived != 3334 {
		t.Errorf("Overhead.TopoRecordsReceived = %d, pinned 3334", res.Overhead.TopoRecordsReceived)
	}
}

func TestRoutingResultPinned(t *testing.T) {
	w, err := agentmesh.RoutingNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := agentmesh.RunRouting(w, agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	pinF64(t, "Mean", res.Mean, 0.5755462184873954)
	pinF64(t, "Std", res.Std, 0.048004049731793105)
	pinF64(t, "MeanEndToEnd", res.MeanEndToEnd, 0.16014005602240894)
	pinF64(t, "weightedSum(Connectivity)", weightedSum(res.Connectivity), 27373.436974789918)
	pinF64(t, "weightedSum(EndToEnd)", weightedSum(res.EndToEnd), 7898.5840336134479)
	pinF64(t, "weightedSum(Ideal)", weightedSum(res.Ideal), 44870.789915966387)
	if res.Overhead.Moves != 29926 {
		t.Errorf("Overhead.Moves = %d, pinned 29926", res.Overhead.Moves)
	}
	if res.Overhead.Meetings != 28527 {
		t.Errorf("Overhead.Meetings = %d, pinned 28527", res.Overhead.Meetings)
	}
	if res.Overhead.TrailAdoptions != 624 {
		t.Errorf("Overhead.TrailAdoptions = %d, pinned 624", res.Overhead.TrailAdoptions)
	}
	if res.Overhead.RouteDeposits != 3704 {
		t.Errorf("Overhead.RouteDeposits = %d, pinned 3704", res.Overhead.RouteDeposits)
	}
	if res.Overhead.VisitRecordsReceived != 17966 {
		t.Errorf("Overhead.VisitRecordsReceived = %d, pinned 17966", res.Overhead.VisitRecordsReceived)
	}
}

// TestMappingBatchPinned pins a whole RunMany aggregate. Run seeds derive
// from rng.DeriveSeed (SplitMix64 stream expansion of the base seed), so
// these values were recorded when that derivation landed and double as
// its regression goldens.
func TestMappingBatchPinned(t *testing.T) {
	worldFor := func(int) (*agentmesh.World, error) { return agentmesh.MappingNetwork(1) }
	agg, err := agentmesh.RunMappingBatch(worldFor, agentmesh.MappingScenario{
		Agents: 15, Kind: agentmesh.PolicyConscientious, Cooperate: true,
	}, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != 5 {
		t.Errorf("Completed = %d, pinned 5", agg.Completed)
	}
	if want := []int{386, 227, 320, 256, 337}; !reflect.DeepEqual(agg.FinishTimes, want) {
		t.Errorf("FinishTimes = %v, pinned %v", agg.FinishTimes, want)
	}
	pinF64(t, "Finish.Mean", agg.Finish.Mean, 305.19999999999999)
	pinF64(t, "weightedSum(AvgCurve)", weightedSum(agg.AvgCurve), 70072.541955555571)
	pinF64(t, "weightedSum(AvgMinCurve)", weightedSum(agg.AvgMinCurve), 64679.971333333327)
	if agg.Overhead.Moves != 22815 {
		t.Errorf("Overhead.Moves = %d, pinned 22815", agg.Overhead.Moves)
	}
	if agg.Overhead.Meetings != 1067 {
		t.Errorf("Overhead.Meetings = %d, pinned 1067", agg.Overhead.Meetings)
	}
}

// TestRoutingBatchPinned is TestMappingBatchPinned's routing twin.
func TestRoutingBatchPinned(t *testing.T) {
	worldFor := func(int) (*agentmesh.World, error) { return agentmesh.RoutingNetwork(1) }
	agg, err := agentmesh.RunRoutingBatch(worldFor, agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true,
	}, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	pinF64(t, "Mean.Mean", agg.Mean.Mean, 0.55895238095238109)
	pinF64(t, "EndToEnd.Mean", agg.EndToEnd.Mean, 0.17808403361344544)
	pinF64(t, "Stability", agg.Stability, 0.044690628385570613)
	pinF64(t, "weightedSum(AvgSeries)", weightedSum(agg.AvgSeries), 26876.319327731093)
	pinF64(t, "weightedSum(AvgIdeal)", weightedSum(agg.AvgIdeal), 44870.789915966387)
	if agg.Overhead.Moves != 149675 {
		t.Errorf("Overhead.Moves = %d, pinned 149675", agg.Overhead.Moves)
	}
	if agg.Overhead.Meetings != 142525 {
		t.Errorf("Overhead.Meetings = %d, pinned 142525", agg.Overhead.Meetings)
	}
	if agg.Overhead.RouteDeposits != 18529 {
		t.Errorf("Overhead.RouteDeposits = %d, pinned 18529", agg.Overhead.RouteDeposits)
	}
	if agg.Overhead.TrailAdoptions != 3745 {
		t.Errorf("Overhead.TrailAdoptions = %d, pinned 3745", agg.Overhead.TrailAdoptions)
	}
}

// TestMetricsPreserveDeterminism runs both scenarios with and without a
// metrics registry attached and requires bit-identical Results: the
// instrumentation layer must sit entirely outside the RNG and
// simulation-state paths.
func TestMetricsPreserveDeterminism(t *testing.T) {
	t.Run("mapping", func(t *testing.T) {
		sc := agentmesh.MappingScenario{
			Agents: 15, Kind: agentmesh.PolicyConscientious, Cooperate: true, Stigmergy: true,
		}
		run := func(reg *agentmesh.MetricsRegistry) agentmesh.MappingResult {
			w, err := agentmesh.MappingNetwork(1)
			if err != nil {
				t.Fatal(err)
			}
			s := sc
			s.Metrics = reg
			res, err := agentmesh.RunMapping(w, s, 7)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain := run(nil)
		reg := agentmesh.NewMetricsRegistry()
		instrumented := run(reg)
		if !reflect.DeepEqual(plain, instrumented) {
			t.Error("mapping Result differs with metrics attached")
		}
		if snap := reg.Snapshot(nil); snap.Counter("mapping_moves_total") == 0 {
			t.Error("registry recorded nothing — instrumentation not wired")
		}
	})
	t.Run("routing", func(t *testing.T) {
		sc := agentmesh.RoutingScenario{
			Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true, Stigmergy: true,
			Steps: 120,
		}
		run := func(reg *agentmesh.MetricsRegistry) agentmesh.RoutingResult {
			w, err := agentmesh.RoutingNetwork(1)
			if err != nil {
				t.Fatal(err)
			}
			s := sc
			s.Metrics = reg
			res, err := agentmesh.RunRouting(w, s, 7)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain := run(nil)
		reg := agentmesh.NewMetricsRegistry()
		instrumented := run(reg)
		if !reflect.DeepEqual(plain, instrumented) {
			t.Error("routing Result differs with metrics attached")
		}
		snap := reg.Snapshot(nil)
		if snap.Counter("routing_moves_total") == 0 {
			t.Error("registry recorded nothing — instrumentation not wired")
		}
		if snap.Counter("world_steps_total") == 0 {
			t.Error("world phase instrumentation not wired")
		}
	})
}

// TestReplayMatchesPinnedRun records the canonical pinned routing run
// (the TestRoutingResultPinned configuration) into an in-memory binary
// log, then proves the log is a faithful durable artefact three ways:
// attaching the recorder does not perturb the pinned result, the logged
// world stream verifies in lockstep against a fresh simulation, and the
// measurement curve recomputed purely from the log reproduces the pinned
// connectivity checksum bit for bit.
func TestReplayMatchesPinnedRun(t *testing.T) {
	meta := replay.RunMeta{
		Scenario:    "routing",
		Spec:        netgen.Routing250(),
		WorldSeed:   1,
		Seed:        7,
		Steps:       300,
		AnchorEvery: 50,
	}
	hdr, err := replay.NewLogHeader(meta)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	lw, err := trace.NewLogWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := agentmesh.RoutingNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := agentmesh.RunRouting(w, agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true,
		Tracer: lw, AnchorEvery: meta.AnchorEvery,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	// Recording must not perturb the simulation: the pinned aggregates of
	// TestRoutingResultPinned still hold with the recorder attached.
	pinF64(t, "Mean", res.Mean, 0.5755462184873954)
	pinF64(t, "weightedSum(Connectivity)", weightedSum(res.Connectivity), 27373.436974789918)

	lr, err := trace.NewLogReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gotMeta, err := replay.MetaFromHeader(lr.Header())
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round-trip: got %+v, want %+v", gotMeta, meta)
	}
	checked, err := replay.VerifyLog(lr, gotMeta)
	if err != nil {
		t.Fatalf("VerifyLog: %v", err)
	}
	if checked < meta.Steps {
		t.Fatalf("VerifyLog checked only %d records over %d steps", checked, meta.Steps)
	}
	sum, err := replay.SummarizeLog(lr)
	if err != nil {
		t.Fatal(err)
	}
	pinF64(t, "weightedSum(log connectivity)",
		weightedSum(sum.MeasuresByName["connectivity"]), 27373.436974789918)
	pinF64(t, "weightedSum(log end-to-end)",
		weightedSum(sum.MeasuresByName["end-to-end"]), 7898.5840336134479)
}

// TestRoutingChurnResultPinned pins a fully faulted run — the "blackout"
// preset layers node churn, a gateway-failure window, and a partition over
// the canonical 250-node network — so the whole fault path (schedule
// expansion, masked topology maintenance, table purges, stranded-agent
// respawn, recovery statistics) is bit-stable. Any change to fault
// ordering, RNG stream layout, or the alive-mask stepping paths moves
// these values.
func TestRoutingChurnResultPinned(t *testing.T) {
	w, err := agentmesh.RoutingNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := agentmesh.FaultPreset("blackout", w.N(), w.Gateways(), 300, 21)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := agentmesh.RoutingNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := agentmesh.RunRouting(w2, agentmesh.RoutingScenario{
		Agents: 100, Kind: agentmesh.PolicyOldestNode, Communicate: true,
		Faults: sched,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	pinF64(t, "Mean", res.Mean, 0.52206638509669656)
	pinF64(t, "MeanStaleness", res.MeanStaleness, 38.500025574804162)
	pinF64(t, "weightedSum(Connectivity)", weightedSum(res.Connectivity), 25103.32629180299)
	pinF64(t, "weightedSum(Ideal)", weightedSum(res.Ideal), 44304.906462729938)
	pinF64(t, "weightedSum(Staleness)", weightedSum(res.Staleness), 1522505.7414287091)
	if res.Stranded != 19 {
		t.Errorf("Stranded = %d, pinned 19", res.Stranded)
	}
	if len(res.Recovery.Events) != 17 || res.Recovery.Recovered != 17 {
		t.Errorf("Recovery events=%d recovered=%d, pinned 17/17",
			len(res.Recovery.Events), res.Recovery.Recovered)
	}
	pinF64(t, "Recovery.Floor", res.Recovery.Floor, 0.36842105263157893)
	pinF64(t, "RecoveryEndToEnd.MeanSteps", res.RecoveryEndToEnd.MeanSteps, 0.058823529411764705)
	pinF64(t, "RecoveryEndToEnd.Floor", res.RecoveryEndToEnd.Floor, 0.040540540540540543)
	if res.Overhead.Moves != 28059 {
		t.Errorf("Overhead.Moves = %d, pinned 28059", res.Overhead.Moves)
	}
	if res.Overhead.RouteDeposits != 4136 {
		t.Errorf("Overhead.RouteDeposits = %d, pinned 4136", res.Overhead.RouteDeposits)
	}
}

// TestSuperConscientiousMappingPinned pins Fig 5's configuration —
// cooperating super-conscientious agents, whose meetings merge unbounded
// visit histories through knowledge.MergeAll — at three population
// sizes. The values were recorded on the map-backed visit memory, so a
// pass proves any rewrite of that memory changes nothing observable.
func TestSuperConscientiousMappingPinned(t *testing.T) {
	checkSuperConscientiousPins(t, 1)
}

// TestSuperConscientiousMappingPinnedWorkers4 is the same pin with the
// runs executed side by side on a four-worker run pool, the executor
// RunWorkers sizes: the runs then merge visit histories concurrently,
// drawing lineage tokens from one shared counter, and the results must
// still match bit for bit.
func TestSuperConscientiousMappingPinnedWorkers4(t *testing.T) {
	withBudget(t, 4, func() { checkSuperConscientiousPins(t, 4) })
}

func checkSuperConscientiousPins(t *testing.T, runWorkers int) {
	t.Helper()
	cases := []struct {
		agents                       int
		finish                       int
		curve, minCurve              float64
		moves, meetings, topo, visit int
	}{
		{5, 817, 305772.88933333335, 285699.60666666651, 4080, 2141, 176, 438},
		{15, 439, 86714.054222222214, 74411.540000000023, 6570, 5755, 2330, 7354},
		{40, 496, 110215.89425000001, 93788.973333333328, 19800, 19331, 5867, 14753},
	}
	results := make([]agentmesh.MappingResult, len(cases))
	err := parallel.NewPool(runWorkers).Run(len(cases), func(i int) error {
		w, err := agentmesh.MappingNetwork(1)
		if err != nil {
			return err
		}
		results[i], err = agentmesh.RunMapping(w, agentmesh.MappingScenario{
			Agents: cases[i].agents, Kind: agentmesh.PolicySuperConscientious, Cooperate: true,
		}, 7)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range cases {
		res := results[i]
		if !res.Finished || res.FinishStep != tc.finish || len(res.Curve) != tc.finish {
			t.Errorf("agents=%d: Finished=%v FinishStep=%d len(Curve)=%d, pinned true/%d/%d",
				tc.agents, res.Finished, res.FinishStep, len(res.Curve), tc.finish, tc.finish)
		}
		pinF64(t, "weightedSum(Curve)", weightedSum(res.Curve), tc.curve)
		pinF64(t, "weightedSum(MinCurve)", weightedSum(res.MinCurve), tc.minCurve)
		got := []int{res.Overhead.Moves, res.Overhead.Meetings,
			res.Overhead.TopoRecordsReceived, res.Overhead.VisitRecordsReceived}
		if want := []int{tc.moves, tc.meetings, tc.topo, tc.visit}; !reflect.DeepEqual(got, want) {
			t.Errorf("agents=%d: Overhead moves/meetings/topo/visit records = %v, pinned %v",
				tc.agents, got, want)
		}
	}
}
