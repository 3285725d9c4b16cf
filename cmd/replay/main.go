// Command replay is the one reader of the binary simulation logs produced
// by `routing -binlog` / `mapping -binlog`: it reconstructs the world at
// any step from the nearest snapshot anchor plus the logged deltas,
// verifies a log bit-for-bit against a fresh simulation, summarises the
// event stream without ever materialising it, and exports that stream as
// JSON Lines.
//
// Examples:
//
//	routing -runs 1 -binlog run.alog            # record
//	replay -log run.alog                        # header + stream summary
//	replay -log run.alog -step 120 -snapshot    # world state at step 120, as JSON
//	replay -log run.alog -step 120 -verify      # bit-compare step 120 vs fresh sim
//	replay -log run.alog -verify                # full lockstep verification
//	replay -log run.alog -summary               # event mix, activity, curves & fault steps
//	replay -log run.alog -jsonl > run.jsonl     # the event stream as JSON Lines
//
// Exit status: 0 on success, 1 on corruption or verification mismatch,
// 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	var (
		logPath  = flag.String("log", "", "binary log to read (required)")
		step     = flag.Int("step", -1, "reconstruct the world at this step (0 = initial state)")
		snapshot = flag.Bool("snapshot", false, "print the reconstructed snapshot as JSON (needs -step)")
		verify   = flag.Bool("verify", false, "bit-compare against a fresh simulation (whole log, or just -step)")
		summary  = flag.Bool("summary", false, "print the event mix, agent activity, measurement curves and fault steps")
		jsonl    = flag.Bool("jsonl", false, "write the event stream to stdout as JSON Lines, and nothing else")
	)
	flag.Parse()

	if *logPath == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: replay -log <file.alog> [-step N [-snapshot]] [-verify] [-summary] | -jsonl")
		os.Exit(2)
	}
	if *snapshot && *step < 0 {
		fmt.Fprintln(os.Stderr, "replay: -snapshot needs -step")
		os.Exit(2)
	}
	if *jsonl && (*step >= 0 || *verify || *summary) {
		fmt.Fprintln(os.Stderr, "replay: -jsonl owns stdout and combines with no other mode")
		os.Exit(2)
	}

	lr, closeLog, err := trace.OpenLog(*logPath)
	if err != nil {
		fail(err)
	}
	defer closeLog()
	if *jsonl {
		if _, err := replay.ExportJSONL(lr, os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	reg := metrics.NewRegistry()
	lr.Instrument(reg)

	hdr := lr.Header()
	meta, metaErr := replay.MetaFromHeader(hdr)
	fmt.Printf("log: %s version=%d seed=%d confighash=%016x\n",
		*logPath, hdr.Version, hdr.BaseSeed, hdr.ConfigHash)
	if metaErr == nil {
		fmt.Printf("run: scenario=%s worldseed=%d seed=%d steps=%d faults=%q anchorevery=%d\n",
			meta.Scenario, meta.WorldSeed, meta.Seed, meta.Steps, meta.FaultPreset, meta.AnchorEvery)
	}

	if *step >= 0 {
		snap, err := replay.ReconstructAt(lr, *step)
		if err != nil {
			fail(err)
		}
		fmt.Printf("reconstructed step=%d nodes=%d\n", *step, len(snap.Positions))
		if *snapshot {
			b, err := json.Marshal(snap)
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(append(b, '\n'))
		}
		if *verify {
			if metaErr != nil {
				fail(fmt.Errorf("cannot verify: log header has no run meta: %w", metaErr))
			}
			if err := replay.VerifyAt(lr, meta, *step); err != nil {
				fail(fmt.Errorf("step %d diverges from fresh simulation: %w", *step, err))
			}
			fmt.Printf("verify step=%d ok: reconstruction is bit-identical to a fresh simulation\n", *step)
		}
	} else if *verify {
		if metaErr != nil {
			fail(fmt.Errorf("cannot verify: log header has no run meta: %w", metaErr))
		}
		checked, err := replay.VerifyLog(lr, meta)
		if err != nil {
			fail(fmt.Errorf("log diverges from fresh simulation: %w", err))
		}
		fmt.Printf("verify ok: checked=%d records bit-identical to a fresh simulation\n", checked)
	}

	sum, err := replay.SummarizeLog(lr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("events=%d steps=%d moves=%d meetings=%d deposits=%d measures=%d faults=%d blocks_read=%d\n",
		sum.Events, sum.Steps, sum.ByKind[trace.KindMove], sum.ByKind[trace.KindMeet],
		sum.ByKind[trace.KindDeposit], sum.ByKind[trace.KindMeasure], len(sum.FaultSteps),
		reg.Snapshot(nil).Counter("replay_blocks_read"))

	if *summary {
		printSummary(sum)
	}
}

// printSummary renders the event stream's shape: per-kind counts, the
// meeting-size distribution, agent activity, deposits per step, every
// measurement curve, and the fault steps with their recovery statistics.
func printSummary(s replay.Summary) {
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	fmt.Println()
	for _, k := range kinds {
		fmt.Printf("  %-8s %d\n", k, s.ByKind[trace.Kind(k)])
	}

	if sizes, counts := s.MeetingSizesSorted(); len(sizes) > 0 {
		fmt.Println("\nmeeting sizes:")
		labels := make([]string, len(sizes))
		values := make([]float64, len(sizes))
		for i, sz := range sizes {
			labels[i] = fmt.Sprintf("%d agents", sz)
			values[i] = float64(counts[i])
		}
		fmt.Print(viz.Bars(labels, values, 40))
	}

	if agents, total, fewest, most := s.MoveStats(); agents > 0 {
		fmt.Printf("\nagent activity: %d agents moved %d times (min %d, max %d per agent)\n",
			agents, total, fewest, most)
	}

	if len(s.DepositsPerStep) > 0 {
		series := make([]float64, len(s.DepositsPerStep))
		peak := 0.0
		for i, d := range s.DepositsPerStep {
			series[i] = float64(d)
			peak = max(peak, series[i])
		}
		for i := range series {
			series[i] /= peak
		}
		fmt.Printf("\ndeposits per step (peak %d):\n%s\n", int(peak), viz.Sparkline(series, 75))
	}

	for _, name := range s.MeasureNames {
		curve := s.MeasuresByName[name]
		if len(curve) == 0 {
			continue
		}
		fmt.Printf("\n%s curve (%d points):\n%s\nfinal value: %.3f\n",
			name, len(curve), viz.Sparkline(curve, 75), curve[len(curve)-1])
	}
	if len(s.FaultSteps) > 0 {
		fmt.Printf("\nfault steps: %v\n", s.FaultSteps)
		if rec, err := s.Recovery("", 0.02); err == nil && len(rec.Events) > 0 {
			fmt.Printf("recovery (%s): %d/%d events recovered, mean %.2f steps, floor %.4f\n",
				s.MeasureName, rec.Recovered, rec.Recovered+rec.Censored, rec.MeanSteps, rec.Floor)
		}
	}
	if s.FinishStep >= 0 {
		fmt.Printf("\nrun finished at step %d\n", s.FinishStep)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "replay:", err)
	os.Exit(1)
}
