package replay_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/netgen"
	"repro/internal/replay"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testSpec is a small dynamic routing world, fast enough to round-trip
// many times per test run.
func testSpec() netgen.Spec {
	spec := netgen.Routing250()
	spec.N = 60
	spec.TargetEdges = 400
	spec.Gateways = 4
	return spec
}

// recordRun executes one sequential 20-agent routing run recorded into an
// in-memory binary log, returning the log bytes and the live result.
func recordRun(t *testing.T, meta replay.RunMeta) ([]byte, routing.Result) {
	t.Helper()
	return recordRunAgents(t, meta, 20)
}

// recordRunAgents is recordRun with the agent population given.
func recordRunAgents(t *testing.T, meta replay.RunMeta, agents int) ([]byte, routing.Result) {
	t.Helper()
	w, err := meta.FreshWorld()
	if err != nil {
		t.Fatalf("world: %v", err)
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
	sc := routing.Scenario{
		Agents:      agents,
		Steps:       meta.Steps,
		Tracer:      lw,
		AnchorEvery: meta.AnchorEvery,
	}
	if meta.FaultPreset != "" {
		sched, err := faults.Preset(meta.FaultPreset, w.N(), w.Gateways(), meta.Steps, meta.WorldSeed)
		if err != nil {
			t.Fatalf("preset: %v", err)
		}
		sc.Faults = sched
	}
	res, err := routing.Run(w, sc, meta.Seed)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := lw.Close(); err != nil {
		t.Fatalf("log close: %v", err)
	}
	return buf.Bytes(), res
}

func openLog(t *testing.T, data []byte) (*trace.LogReader, replay.RunMeta) {
	t.Helper()
	lr, err := trace.NewLogReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := replay.MetaFromHeader(lr.Header())
	if err != nil {
		t.Fatal(err)
	}
	return lr, meta
}

// TestLogRoundTripDynamicRouting is the restore-correctness gate for
// unfaulted runs: the full log verifies in lockstep against a fresh
// simulation, any individual step reconstructs bit-identically, and the
// log-derived measurement curves equal the live run's series exactly.
func TestLogRoundTripDynamicRouting(t *testing.T) {
	meta := replay.RunMeta{
		Scenario:    "routing",
		Spec:        testSpec(),
		WorldSeed:   1,
		Seed:        7,
		Steps:       80,
		AnchorEvery: 25,
	}
	data, res := recordRun(t, meta)
	lr, gotMeta := openLog(t, data)
	if gotMeta != meta {
		t.Fatalf("meta round-trip: got %+v, want %+v", gotMeta, meta)
	}

	checked, err := replay.VerifyLog(lr, gotMeta)
	if err != nil {
		t.Fatalf("VerifyLog: %v", err)
	}
	// One check per recorded delta plus one per anchor; a dynamic world
	// moves every step.
	if checked < meta.Steps {
		t.Fatalf("VerifyLog checked only %d records over %d steps", checked, meta.Steps)
	}

	for _, step := range []int{0, 1, 24, 25, 26, 57, 79, 80} {
		if err := replay.VerifyAt(lr, gotMeta, step); err != nil {
			t.Fatalf("VerifyAt(%d): %v", step, err)
		}
	}

	sum, err := replay.SummarizeLog(lr)
	if err != nil {
		t.Fatalf("SummarizeLog: %v", err)
	}
	conn := sum.MeasuresByName["connectivity"]
	if len(conn) != len(res.Connectivity) {
		t.Fatalf("log connectivity curve has %d points, live %d", len(conn), len(res.Connectivity))
	}
	for i := range conn {
		if math.Float64bits(conn[i]) != math.Float64bits(res.Connectivity[i]) {
			t.Fatalf("connectivity[%d]: log %v != live %v", i, conn[i], res.Connectivity[i])
		}
	}
	e2e := sum.MeasuresByName["end-to-end"]
	for i := range e2e {
		if math.Float64bits(e2e[i]) != math.Float64bits(res.EndToEnd[i]) {
			t.Fatalf("end-to-end[%d]: log %v != live %v", i, e2e[i], res.EndToEnd[i])
		}
	}
}

// TestLogRoundTripFaultedRuns round-trips every structural fault preset
// through the binary log and asserts (a) the reconstructed world matches
// the live faulted run bit for bit at every step, including snapshot v2
// fault state, and (b) the recovery statistics recomputed purely from the
// log equal the live harness's bit for bit.
func TestLogRoundTripFaultedRuns(t *testing.T) {
	for _, preset := range []string{"churn", "gwfail", "partition"} {
		t.Run(preset, func(t *testing.T) {
			meta := replay.RunMeta{
				Scenario:    "routing",
				Spec:        testSpec(),
				WorldSeed:   3,
				Seed:        11,
				Steps:       120,
				FaultPreset: preset,
				AnchorEvery: 30,
			}
			data, res := recordRun(t, meta)
			lr, gotMeta := openLog(t, data)

			if _, err := replay.VerifyLog(lr, gotMeta); err != nil {
				t.Fatalf("VerifyLog: %v", err)
			}
			sum, err := replay.SummarizeLog(lr)
			if err != nil {
				t.Fatalf("SummarizeLog: %v", err)
			}
			if len(sum.FaultSteps) == 0 {
				t.Fatal("faulted run logged no fault events")
			}
			// Spot-check reconstruction right at the fault transitions the
			// log recorded, plus the run's endpoints.
			probes := append([]int{0, meta.Steps / 2, meta.Steps}, sum.FaultSteps...)
			for _, step := range probes {
				if err := replay.VerifyAt(lr, gotMeta, step); err != nil {
					t.Fatalf("VerifyAt(%d): %v", step, err)
				}
			}
			gotRec, err := sum.Recovery("connectivity", 0.02)
			if err != nil {
				t.Fatal(err)
			}
			compareRecovery(t, "connectivity", gotRec, res.Recovery)
			gotE2E, err := sum.Recovery("end-to-end", 0.02)
			if err != nil {
				t.Fatal(err)
			}
			compareRecovery(t, "end-to-end", gotE2E, res.RecoveryEndToEnd)
		})
	}
}

// compareRecovery asserts two recovery measurements are bit-identical.
func compareRecovery(t *testing.T, what string, got, want stats.RecoveryStats) {
	t.Helper()
	if got.Recovered != want.Recovered || got.Censored != want.Censored {
		t.Fatalf("%s: recovered/censored %d/%d, live %d/%d",
			what, got.Recovered, got.Censored, want.Recovered, want.Censored)
	}
	if math.Float64bits(got.MeanSteps) != math.Float64bits(want.MeanSteps) {
		t.Fatalf("%s: MeanSteps %v != live %v", what, got.MeanSteps, want.MeanSteps)
	}
	if math.Float64bits(got.Floor) != math.Float64bits(want.Floor) {
		t.Fatalf("%s: Floor %v != live %v", what, got.Floor, want.Floor)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%s: %d recovery events, live %d", what, len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		g, w := got.Events[i], want.Events[i]
		if g.Step != w.Step || g.Recovered != w.Recovered || g.Steps != w.Steps ||
			math.Float64bits(g.Baseline) != math.Float64bits(w.Baseline) ||
			math.Float64bits(g.Floor) != math.Float64bits(w.Floor) {
			t.Fatalf("%s: recovery event %d: log %+v != live %+v", what, i, g, w)
		}
	}
}

// summarize is SummarizeLog's referee: a materialised event slice folded
// through a fresh SummaryBuilder.
func summarize(events []trace.Event) replay.Summary {
	b := replay.NewSummaryBuilder()
	for _, e := range events {
		b.Add(e)
	}
	return b.Summary()
}

// TestSummaryBuilderMatchesSummarize pins the streaming SummarizeLog
// against the batch referee on a recorded event stream.
func TestSummaryBuilderMatchesSummarize(t *testing.T) {
	meta := replay.RunMeta{
		Scenario:    "routing",
		Spec:        testSpec(),
		WorldSeed:   1,
		Seed:        7,
		Steps:       40,
		AnchorEvery: 20,
	}
	data, _ := recordRun(t, meta)
	lr, _ := openLog(t, data)

	var events []trace.Event
	err := lr.Scan(func(r trace.Record) error {
		if r.Kind == trace.RecordEvent {
			events = append(events, r.Event)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := replay.SummarizeLog(lr)
	if err != nil {
		t.Fatal(err)
	}
	if batch := summarize(events); !reflect.DeepEqual(stream, batch) {
		t.Fatalf("streaming summary %v != batch %v", stream, batch)
	}
	if stream.ByKind[trace.KindDeposit] == 0 || len(stream.DepositsPerStep) == 0 {
		t.Fatal("recorded run has no deposits to compare")
	}
}

// TestVerifyLogAllocsFlat pins VerifyLog's per-record cost: the lockstep
// check compares the reconstruction against one reused capture of the live
// world, so doubling a Fig 8 log (RoutingNetwork(1), 200 agents) from 300
// to 600 steps must add well under one snapshot's worth of allocation per
// extra checked record. A fresh snapshot per record costs ~6 KB here.
func TestVerifyLogAllocsFlat(t *testing.T) {
	verify := func(steps int) (checked int, alloc uint64) {
		meta := replay.RunMeta{
			Scenario: "routing", Spec: netgen.Routing250(), WorldSeed: 1,
			Seed: 5, Steps: steps,
		}
		data, _ := recordRunAgents(t, meta, 200)
		lr, meta := openLog(t, data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		checked, err := replay.VerifyLog(lr, meta)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("VerifyLog(%d steps): %v", steps, err)
		}
		return checked, after.TotalAlloc - before.TotalAlloc
	}
	c300, a300 := verify(300)
	c600, a600 := verify(600)
	if c600 <= c300 {
		t.Fatalf("600-step log checked %d records, 300-step %d", c600, c300)
	}
	perRecord := float64(int64(a600)-int64(a300)) / float64(c600-c300)
	t.Logf("VerifyLog: %d records %d B, %d records %d B: %.0f B per extra record", c300, a300, c600, a600, perRecord)
	if perRecord >= 2048 {
		t.Fatalf("VerifyLog allocates %.0f B per extra checked record, want < 2048", perRecord)
	}
}
