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
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
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
	)
	flag.Parse()

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
