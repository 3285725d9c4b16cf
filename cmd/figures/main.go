// Command figures regenerates the paper's tables and figures.
//
// Usage:
//
//	figures -fig 1            # reproduce Figure 1
//	figures -fig extA         # run the stigmergic-routing extension
//	figures -all              # everything, in order
//	figures -all -quick       # fast smoke pass (8 runs, smaller sweeps)
//	figures -all -expworkers 4 -runworkers 2   # parallel, same numbers
//	figures -fig 7 -tsv out/  # also write plottable TSV series
//
// Every experiment prints the regenerated results table and a set of
// "shape checks" comparing the outcome with the paper's qualitative
// claims.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to reproduce: 1..11, A..E (or fig1..extE); empty with -all for everything")
		all        = flag.Bool("all", false, "run every experiment")
		quick      = flag.Bool("quick", false, "fast smoke pass (fewer runs, smaller sweeps)")
		runs       = flag.Int("runs", 0, "independent runs per setting (default 40, paper-faithful)")
		seed       = flag.Uint64("seed", 1, "root seed")
		runWorkers = flag.Int("runworkers", runtime.NumCPU(), "concurrent independent runs per setting (results are identical at any value)")
		expWorkers = flag.Int("expworkers", 1, "concurrent experiments (reports still print in order)")
		tsvDir     = flag.String("tsv", "", "directory to write per-figure TSV series into")
		mdFile     = flag.String("md", "", "append Markdown sections for each experiment to this file")
		list       = flag.Bool("list", false, "list available experiments")
		fromLog    = flag.String("fromlog", "", "render curves from a recorded binary run log (routing/mapping -binlog) instead of simulating")
	)
	flag.Parse()

	if *fromLog != "" {
		if err := figuresFromLog(*fromLog, *tsvDir); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-6s %s\n", id, experiments.Title(id))
		}
		return
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *fig != "":
		ids = []string{experiments.NormalizeID(*fig)}
	default:
		fmt.Fprintln(os.Stderr, "figures: pass -fig <id> or -all (use -list to see experiments)")
		os.Exit(2)
	}

	cfg := experiments.Config{
		Runs:       *runs,
		Seed:       *seed,
		RunWorkers: *runWorkers,
		Quick:      *quick,
	}
	var md *os.File
	if *mdFile != "" {
		var err error
		md, err = os.Create(*mdFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		defer md.Close()
		fmt.Fprintf(md, "# Reproduction report (seed=%d)\n\n", cfg.Seed)
	}

	// Experiments are independent, so -expworkers runs them concurrently;
	// reports are parked per slot and flushed strictly in id order, so the
	// output (and any -md/-tsv files) is byte-identical at any worker
	// count. Each experiment's seeds derive from its own labels, so the
	// numbers themselves never depend on scheduling.
	type outcome struct {
		rep     experiments.Report
		elapsed time.Duration
	}
	results := make([]outcome, len(ids))
	done := make([]bool, len(ids))
	failed, emitted := 0, 0
	var emitErr error
	var mu sync.Mutex
	flush := func() {
		for emitted < len(ids) && done[emitted] {
			id, out := ids[emitted], results[emitted]
			emitted++
			fmt.Println(out.rep.String())
			fmt.Printf("(%s in %v)\n\n", id, out.elapsed.Round(time.Millisecond))
			for _, c := range out.rep.Checks {
				if !c.OK && !c.Known {
					failed++
				}
			}
			if md != nil {
				if _, err := md.WriteString(out.rep.Markdown()); err != nil && emitErr == nil {
					emitErr = err
				}
			}
			if *tsvDir != "" && len(out.rep.Series) > 0 {
				if err := os.MkdirAll(*tsvDir, 0o755); err != nil {
					if emitErr == nil {
						emitErr = err
					}
					continue
				}
				path := filepath.Join(*tsvDir, id+".tsv")
				if err := os.WriteFile(path, []byte(out.rep.TSV()), 0o644); err != nil {
					if emitErr == nil {
						emitErr = err
					}
					continue
				}
				fmt.Printf("wrote %s\n\n", path)
			}
		}
	}
	err := parallel.NewPool(*expWorkers).Run(len(ids), func(i int) error {
		start := time.Now()
		rep, err := experiments.Run(ids[i], cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		results[i] = outcome{rep: rep, elapsed: time.Since(start)}
		done[i] = true
		flush()
		mu.Unlock()
		return nil
	})
	if err == nil {
		err = emitErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "figures: %d shape check(s) deviated from the paper\n", failed)
		os.Exit(1)
	}
}

// figuresFromLog renders measurement curves from a recorded binary log —
// the offline path: no simulation runs, only the event stream is read.
// With tsvDir set, the curves also land as one TSV (step + one column per
// measure) named after the log file.
func figuresFromLog(path, tsvDir string) error {
	lr, closeLog, err := trace.OpenLog(path)
	if err != nil {
		return err
	}
	defer closeLog()
	hdr := lr.Header()
	fmt.Printf("log: %s seed=%d confighash=%016x\n", path, hdr.BaseSeed, hdr.ConfigHash)
	if meta, err := replay.MetaFromHeader(hdr); err == nil {
		fmt.Printf("run: scenario=%s worldseed=%d seed=%d steps=%d faults=%q\n",
			meta.Scenario, meta.WorldSeed, meta.Seed, meta.Steps, meta.FaultPreset)
	}
	sum, err := replay.SummarizeLog(lr)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", sum)
	for _, name := range sum.MeasureNames {
		curve := sum.MeasuresByName[name]
		if len(curve) == 0 {
			continue
		}
		fmt.Printf("\n%s (%d points, final %.4f):\n%s\n",
			name, len(curve), curve[len(curve)-1], viz.Sparkline(curve, 75))
	}
	if len(sum.FaultSteps) > 0 {
		fmt.Printf("\nfault steps: %v\n", sum.FaultSteps)
	}
	if tsvDir == "" {
		return nil
	}
	if err := os.MkdirAll(tsvDir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("step")
	longest := 0
	for _, name := range sum.MeasureNames {
		b.WriteString("\t" + name)
		if n := len(sum.MeasuresByName[name]); n > longest {
			longest = n
		}
	}
	b.WriteByte('\n')
	for i := 0; i < longest; i++ {
		fmt.Fprintf(&b, "%d", i)
		for _, name := range sum.MeasureNames {
			curve := sum.MeasuresByName[name]
			if i < len(curve) {
				fmt.Fprintf(&b, "\t%.6f", curve[i])
			} else {
				b.WriteString("\t")
			}
		}
		b.WriteByte('\n')
	}
	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	out := filepath.Join(tsvDir, base+".tsv")
	if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	return nil
}
