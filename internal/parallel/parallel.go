// Package parallel provides the one concurrency layer of the simulator: a
// deterministic bounded worker pool that runs independent items side by
// side (the replications of mapping.RunMany and routing.RunMany, through
// Replicate, and the parameter-point loops of cmd/sweep and cmd/figures),
// plus a process-wide token budget.
//
// Determinism contract: a Pool only runs *independent* items concurrently
// and makes no scheduling decision observable to the work function — item
// i always receives the same inputs regardless of worker count, every item
// runs exactly once, and the caller merges outputs by item index. A batch
// therefore produces bit-identical results whether the pool has 1 worker
// or runtime.NumCPU().
//
// The budget keeps nested pools (a sweep's point pool around each point's
// run pool) from oversubscribing the machine: every extra goroutine beyond
// the caller, which always participates, is claimed from one shared token
// pool sized to GOMAXPROCS-1, and a pool that finds the budget spent runs
// its batch sequentially on the caller. Go claims from the same budget for
// a single helper goroutine (a routing run's world stepping; see
// network.Lookahead).
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// budget is the process-wide token pool. limit is the configured number of
// extra worker goroutines allowed at once; inUse counts tokens currently
// claimed.
var (
	limit atomic.Int64
	inUse atomic.Int64
)

func init() {
	SetBudget(runtime.GOMAXPROCS(0) - 1)
}

// SetBudget sets the number of extra worker goroutines (beyond each
// blocked caller) the process may run at once. n < 0 is clamped to 0,
// which forces every executor in the process to run sequentially.
// Outstanding claims are unaffected. Intended for tests and for runners
// that want to pin total parallelism explicitly.
func SetBudget(n int) {
	if n < 0 {
		n = 0
	}
	limit.Store(int64(n))
}

// Budget returns the configured token limit.
func Budget() int { return int(limit.Load()) }

// tryAcquire claims up to n tokens from the budget and returns how many it
// got (possibly 0). It never blocks: callers degrade to fewer workers —
// ultimately to the caller goroutine alone — instead of queueing.
func tryAcquire(n int) int {
	if n <= 0 {
		return 0
	}
	for {
		used := inUse.Load()
		avail := limit.Load() - used
		if avail <= 0 {
			return 0
		}
		grant := int64(n)
		if grant > avail {
			grant = avail
		}
		if inUse.CompareAndSwap(used, used+grant) {
			return int(grant)
		}
	}
}

// release returns n tokens claimed with tryAcquire.
func release(n int) {
	if n > 0 {
		inUse.Add(-int64(n))
	}
}

// Go runs fn on a new goroutine if the budget has a token free, holds the
// token until fn returns, and reports whether it started fn. It never
// blocks: with the budget spent it starts nothing and returns false, and
// the caller does the work itself — the same degradation a Pool makes.
// Waiting for fn is the caller's business.
func Go(fn func()) bool {
	if tryAcquire(1) == 0 {
		return false
	}
	go func() {
		defer release(1)
		fn()
	}()
	return true
}

// Pool executes batches of independent work items on up to Workers
// goroutines, claiming budget tokens for the duration of each batch.
type Pool struct {
	workers int
}

// NewPool returns a pool that runs batches on up to workers goroutines
// (the caller counts as one). workers < 1 is normalised to 1.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the configured worker cap.
func (p *Pool) Workers() int { return p.workers }

// Parallel reports whether the pool may use more than one goroutine.
func (p *Pool) Parallel() bool { return p.workers > 1 }

// Run invokes fn(i) for every i in [0, n) exactly once and blocks until
// all calls return. Calls MUST be mutually independent: execution order is
// unspecified in parallel mode. Every item runs even if another item
// fails, so the set of executed calls never depends on scheduling; the
// returned error is the lowest-index failure, matching what a sequential
// loop that collected all errors would report.
//
// The pool claims up to workers-1 budget tokens for the duration of the
// batch and the caller participates as a worker, so an exhausted budget
// degrades Run to a plain sequential loop.
func (p *Pool) Run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	extra := 0
	if workers > 1 {
		extra = tryAcquire(workers - 1)
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	defer release(extra)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 0; w < extra; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Replicate is the replication loop of mapping.RunMany and routing.RunMany:
// it runs replications 0..runs-1 on a pool of the given workers, handing
// replication r the world worldFor(r) and the seed rng.DeriveSeed(baseSeed,
// r), and returns the results in replication order — so they are identical
// at any worker count. A parallel batch needs a fresh world per
// replication, since running one mutates it; Replicate fails loudly when
// worldFor returns the same world twice. The error is the lowest-index
// failure, as Pool.Run reports it.
func Replicate[W comparable, R any](workers, runs int, baseSeed uint64,
	worldFor func(r int) (W, error), run func(w W, seed uint64) (R, error)) ([]R, error) {
	pool := NewPool(workers)
	results := make([]R, runs)
	var mu sync.Mutex
	seen := make(map[W]int)
	err := pool.Run(runs, func(r int) error {
		w, err := worldFor(r)
		if err != nil {
			return err
		}
		if pool.Parallel() {
			mu.Lock()
			prev, dup := seen[w]
			seen[w] = r
			mu.Unlock()
			if dup {
				return fmt.Errorf("parallel replication needs a fresh world per run: worldFor returned the same world for runs %d and %d", prev, r)
			}
		}
		res, err := run(w, rng.DeriveSeed(baseSeed, uint64(r)))
		if err != nil {
			return err
		}
		results[r] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
