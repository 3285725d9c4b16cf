// Command paperbench is the repository's end-to-end benchmark. It drives
// four of the paper's figure workloads through the public harness entry
// points, checks every batch's results, and prints one JSON line of
// metrics as the last line of its output:
//
//	paperbench --workload routing_fig8_live --seed 1 --seconds 20 --trace 0
//
// --trace 0 runs the untraced pass and reports the end-to-end metrics;
// --trace 1 alternates untraced and traced batches and reports the
// per-layer metrics. README.md names the workloads, says why each was
// chosen, and defines every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// defaultSeed is the seed whose reference digests are pinned in
// pinnedDigests.
const defaultSeed = 1

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed: worlds, fault schedules and run seeds derive from it")
		seconds = flag.Float64("seconds", 10, "how long the timed phase runs")
		traced  = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "usage: paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "paperbench: unknown workload %q (have %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	opt := options{
		seed:      *seed,
		duration:  time.Duration(*seconds * float64(time.Second)),
		traced:    *traced == 1,
		setupReps: 5,
	}
	if *seed == defaultSeed {
		opt.pinned = pinnedDigests[w.name]
	}
	res, err := measure(w, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// options configures one benchmark invocation.
type options struct {
	seed     uint64
	duration time.Duration
	traced   bool
	// setupReps is how many times set-up is repeated; setup_s is the
	// median.
	setupReps int
	// pinned, when non-zero, is the digest every batch must reproduce
	// (the pinned reference at the default seed). Zero means the
	// reference batch's own digest is the expectation.
	pinned uint64
	// tiny shrinks every workload for the self-test.
	tiny bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass accumulates one pass's timed batches.
type pass struct {
	runs     int
	failed   int
	wall     time.Duration   // sum of batch wall times
	runTimes []time.Duration // one per run
}

func (p *pass) add(b batchResult, wall time.Duration, runTimes []time.Duration) {
	p.runs += b.runs
	p.failed += b.failed
	p.wall += wall
	p.runTimes = append(p.runTimes, runTimes...)
}

func (p *pass) runsPerSecond() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.runs) / p.wall.Seconds()
}

// measure sets the workload up opt.setupReps times, runs the reference
// batch, then times whole batches until opt.duration has passed and
// derives the metrics.
func measure(w workload, opt options) (result, error) {
	var (
		inst       instance
		setupTimes []float64
		generate   []float64
		record     []float64
	)
	for i := 0; i < max(1, opt.setupReps); i++ {
		t0 := time.Now()
		in, err := w.setup(opt.seed, opt.tiny)
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		cost := in.setupCost()
		generate = append(generate, cost.generate.Seconds())
		record = append(record, cost.record.Seconds())
		inst = in
	}

	// The reference batch warms caches and the heap, records its runs into
	// a binary log (log_kb_per_run), and fixes the digest every timed batch
	// that repeats it must reproduce. Timed batches run without the log, so
	// a match also shows that recording does not perturb results.
	var logBuf bytes.Buffer
	lw, err := trace.NewLogWriter(&logBuf, trace.Header{})
	if err != nil {
		return result{}, err
	}
	ref, err := inst.batch(&probe{tracer: lw}, 0)
	if err != nil {
		return result{}, fmt.Errorf("%s: reference batch: %w", w.name, err)
	}
	if err := lw.Close(); err != nil {
		return result{}, fmt.Errorf("%s: reference log: %w", w.name, err)
	}
	logBytes := int64(logBuf.Len())
	if ref.logBytes > 0 {
		logBytes = ref.logBytes // the workload writes logs of its own
	}
	fmt.Fprintf(os.Stderr, "paperbench: %s seed %d reference digest %#x\n", w.name, opt.seed, ref.digest)
	want := ref.digest
	attempted, failed := ref.runs, ref.failed
	if opt.pinned != 0 && opt.pinned != ref.digest {
		// The reference itself is wrong: every batch that reproduces it
		// fails too.
		want = opt.pinned
		failed = ref.runs
	}

	var plain, traced pass
	tracedProbe := &probe{reg: metrics.NewRegistry(), out: &outside{}}
	var memBefore, memAfter runtimeMem
	memBefore.read()
	start := time.Now()
	var plainDigest uint64
	for i := 0; ; i++ {
		// The traced pass runs every batch twice, untraced then traced, so
		// both passes time the same work and the traced batch must
		// reproduce the untraced one.
		k, useTrace := i, false
		if opt.traced {
			k, useTrace = i/2, i%2 == 1
		}
		p := &probe{}
		if useTrace {
			p = tracedProbe
		}
		p.starts = p.starts[:0]
		t0 := time.Now()
		b, err := inst.batch(p, k)
		end := time.Now()
		if err != nil {
			return result{}, fmt.Errorf("%s: batch %d: %w", w.name, k, err)
		}
		if (k == 0 || !w.fresh) && b.digest != want {
			b.failed = b.runs
		}
		runTimes := p.runTimes(end)
		if useTrace {
			if b.digest != plainDigest {
				b.failed = b.runs
			}
			traced.add(b, end.Sub(t0), runTimes)
			if ot, ok := inst.(outsideTimer); ok {
				if err := ot.timeOutside(p); err != nil {
					return result{}, fmt.Errorf("%s: outside timing: %w", w.name, err)
				}
			}
		} else {
			plainDigest = b.digest
			plain.add(b, end.Sub(t0), runTimes)
		}
		if time.Since(start) >= opt.duration && (!opt.traced || useTrace) {
			break
		}
	}
	memAfter.read()
	attempted += plain.runs + traced.runs
	failed += plain.failed + traced.failed

	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
	}
	if opt.traced {
		setup := setupCost{
			generate: time.Duration(median(generate) * float64(time.Second)),
			record:   time.Duration(median(record) * float64(time.Second)),
		}
		res.Metrics = layerMetrics(tracedProbe, &traced, &plain, setup, attempted, failed)
	} else {
		res.Metrics = map[string]metric{
			"runs_per_s":       {plain.runsPerSecond(), "1/s"},
			"run_ms_p50":       {durationQuantile(plain.runTimes, 0.5) * 1e3, "ms"},
			"run_ms_p90":       {durationQuantile(plain.runTimes, 0.9) * 1e3, "ms"},
			"setup_s":          {median(setupTimes), "s"},
			"alloc_mb_per_run": {float64(memAfter.totalAlloc-memBefore.totalAlloc) / float64(plain.runs) / 1e6, "MB"},
			"ok_frac":          {float64(attempted-failed) / float64(attempted), "frac"},
			"log_kb_per_run":   {float64(logBytes) / float64(ref.runs) / 1e3, "KB"},
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("%s: metric %s is %v", w.name, name, m.Value)
		}
	}
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durationQuantile is quantile over durations, in seconds.
func durationQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, q)
}
