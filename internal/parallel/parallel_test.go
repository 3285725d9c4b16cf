package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// withBudget runs fn under a temporary budget and restores the old limit.
func withBudget(t *testing.T, n int, fn func()) {
	t.Helper()
	old := Budget()
	SetBudget(n)
	defer SetBudget(old)
	fn()
}

func TestTryAcquireRespectsLimit(t *testing.T) {
	withBudget(t, 3, func() {
		if got := tryAcquire(2); got != 2 {
			t.Fatalf("tryAcquire(2) = %d, want 2", got)
		}
		if got := tryAcquire(5); got != 1 {
			t.Fatalf("tryAcquire(5) = %d, want remaining 1", got)
		}
		if got := tryAcquire(1); got != 0 {
			t.Fatalf("tryAcquire on spent budget = %d, want 0", got)
		}
		release(3)
		if got := int(inUse.Load()); got != 0 {
			t.Fatalf("tokens in use after release = %d, want 0", got)
		}
	})
}

func TestTryAcquireZeroAndNegative(t *testing.T) {
	withBudget(t, 2, func() {
		if tryAcquire(0) != 0 || tryAcquire(-1) != 0 {
			t.Fatal("non-positive requests must grant nothing")
		}
		release(0)
		release(-5) // must not corrupt the pool
		if got := tryAcquire(2); got != 2 {
			t.Fatalf("budget corrupted: tryAcquire(2) = %d", got)
		}
		release(2)
	})
}

func TestPoolRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withBudget(t, 8, func() {
				const n = 100
				var counts [n]atomic.Int32
				err := NewPool(workers).Run(n, func(i int) error {
					counts[i].Add(1)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Fatalf("item %d ran %d times", i, c)
					}
				}
			})
		})
	}
}

func TestPoolReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		withBudget(t, 4, func() {
			err := NewPool(workers).Run(10, func(i int) error {
				switch i {
				case 3:
					return errA
				case 7:
					return errB
				}
				return nil
			})
			if !errors.Is(err, errA) {
				t.Fatalf("workers=%d: err = %v, want lowest-index error %v", workers, err, errA)
			}
		})
	}
}

func TestPoolSequentialFailsFast(t *testing.T) {
	// With one worker the pool must behave like the historical loop:
	// stop at the first error without touching later items.
	ran := 0
	err := NewPool(1).Run(10, func(i int) error {
		ran++
		if i == 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || ran != 3 {
		t.Fatalf("sequential pool ran %d items (err %v), want fail-fast after 3", ran, err)
	}
}

func TestPoolReleasesBudget(t *testing.T) {
	withBudget(t, 4, func() {
		pool := NewPool(4)
		for round := 0; round < 3; round++ {
			if err := pool.Run(16, func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if got := int(inUse.Load()); got != 0 {
			t.Fatalf("pool leaked %d budget tokens", got)
		}
	})
}

func TestPoolExhaustedBudgetDegradesSequential(t *testing.T) {
	withBudget(t, 0, func() {
		var maxConcurrent, cur atomic.Int32
		err := NewPool(8).Run(32, func(int) error {
			c := cur.Add(1)
			if c > maxConcurrent.Load() {
				maxConcurrent.Store(c)
			}
			cur.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if maxConcurrent.Load() != 1 {
			t.Fatalf("spent budget still ran %d items concurrently", maxConcurrent.Load())
		}
	})
}

// waitIdle waits until every token is back: Go returns a helper's token
// as the helper's goroutine exits, just after fn returns.
func waitIdle() {
	for inUse.Load() != 0 {
		runtime.Gosched()
	}
}

// TestGoHoldsOneToken pins Go's budget use: it starts fn only when a
// token is free, holds that token until fn returns — so a second Go finds
// the budget spent meanwhile — and gives it back afterwards.
func TestGoHoldsOneToken(t *testing.T) {
	withBudget(t, 1, func() {
		gate, done := make(chan struct{}), make(chan struct{})
		if !Go(func() { <-gate; close(done) }) {
			t.Fatal("Go declined with a token free")
		}
		if Go(func() { t.Error("second helper ran on a spent budget") }) {
			t.Fatal("Go started a second helper on a one-token budget")
		}
		close(gate)
		<-done
		waitIdle()
		ran := make(chan struct{})
		if !Go(func() { close(ran) }) {
			t.Fatal("Go declined after the first helper returned its token")
		}
		<-ran
		waitIdle()
	})
	withBudget(t, 0, func() {
		if Go(func() { t.Error("helper ran on a zero budget") }) {
			t.Fatal("Go started a helper on a zero budget")
		}
	})
}

// TestSpareTracksTokens pins Spare: true while a token is free, false
// while a helper holds the last one or the budget is zero.
func TestSpareTracksTokens(t *testing.T) {
	withBudget(t, 1, func() {
		if !Spare() {
			t.Fatal("Spare() = false with a token free")
		}
		gate, done := make(chan struct{}), make(chan struct{})
		if !Go(func() { <-gate; close(done) }) {
			t.Fatal("Go declined with a token free")
		}
		if Spare() {
			t.Fatal("Spare() = true while a helper holds the only token")
		}
		close(gate)
		<-done
		waitIdle()
		if !Spare() {
			t.Fatal("Spare() = false after the helper returned its token")
		}
	})
	withBudget(t, 0, func() {
		if Spare() {
			t.Fatal("Spare() = true on a zero budget")
		}
	})
}

func TestNewPoolNormalises(t *testing.T) {
	if NewPool(0).Workers() != 1 || NewPool(-3).Workers() != 1 {
		t.Fatal("workers < 1 must normalise to 1")
	}
	if NewPool(1).Parallel() || !NewPool(2).Parallel() {
		t.Fatal("Parallel() misreports")
	}
}

func TestSetBudgetClamps(t *testing.T) {
	old := Budget()
	defer SetBudget(old)
	SetBudget(-7)
	if Budget() != 0 {
		t.Fatalf("SetBudget(-7) stored %d, want 0", Budget())
	}
}

// TestReplicate pins the replication loop: results land in replication
// order with replication r seeded rng.DeriveSeed(base, r), identically at
// any worker count, and a parallel batch refuses a world handed out twice
// while a sequential one accepts it.
func TestReplicate(t *testing.T) {
	withBudget(t, 4, func() {
		worlds := make([]*int, 16)
		for i := range worlds {
			worlds[i] = new(int)
		}
		fresh := func(r int) (*int, error) { return worlds[r], nil }
		run := func(w *int, seed uint64) (uint64, error) { return seed, nil }
		for _, workers := range []int{1, 4} {
			got, err := Replicate(workers, len(worlds), 7, fresh, run)
			if err != nil {
				t.Fatal(err)
			}
			for r, seed := range got {
				if want := rng.DeriveSeed(7, uint64(r)); seed != want {
					t.Fatalf("workers=%d: replication %d got seed %d, want %d", workers, r, seed, want)
				}
			}
		}
		shared := func(int) (*int, error) { return worlds[0], nil }
		if _, err := Replicate(1, 4, 7, shared, run); err != nil {
			t.Fatalf("sequential batch rejected a shared world: %v", err)
		}
		if _, err := Replicate(4, 4, 7, shared, run); err == nil || !strings.Contains(err.Error(), "fresh world per run") {
			t.Fatalf("parallel batch with a shared world: err = %v, want the fresh-world error", err)
		}
	})
}
