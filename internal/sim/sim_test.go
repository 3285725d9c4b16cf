package sim

import "testing"

func TestRunCompletes(t *testing.T) {
	steps, done := Run(100, func(step int) bool { return step == 41 })
	if !done || steps != 42 {
		t.Fatalf("steps=%d done=%v", steps, done)
	}
}

func TestRunExhaustsBudget(t *testing.T) {
	var seen []int
	steps, done := Run(5, func(step int) bool {
		seen = append(seen, step)
		return false
	})
	if done || steps != 5 {
		t.Fatalf("steps=%d done=%v", steps, done)
	}
	for i, s := range seen {
		if s != i {
			t.Fatalf("step sequence wrong: %v", seen)
		}
	}
}

func TestRunZeroBudget(t *testing.T) {
	steps, done := Run(0, func(int) bool { return true })
	if steps != 0 || done {
		t.Fatal("zero budget should do nothing")
	}
}

func TestEventQueueOrder(t *testing.T) {
	var q EventQueue
	var fired []int
	q.Schedule(5, func() { fired = append(fired, 5) })
	q.Schedule(1, func() { fired = append(fired, 1) })
	q.Schedule(3, func() { fired = append(fired, 3) })
	if n := q.Drain(); n != 3 {
		t.Fatalf("fired %d", n)
	}
	want := []int{1, 3, 5}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("order = %v", fired)
		}
	}
	if q.Now() != 5 {
		t.Fatalf("Now = %d", q.Now())
	}
}

func TestEventQueueFIFOWithinTime(t *testing.T) {
	var q EventQueue
	var fired []string
	q.Schedule(2, func() { fired = append(fired, "a") })
	q.Schedule(2, func() { fired = append(fired, "b") })
	q.Schedule(2, func() { fired = append(fired, "c") })
	q.Drain()
	if fired[0] != "a" || fired[1] != "b" || fired[2] != "c" {
		t.Fatalf("FIFO violated: %v", fired)
	}
}

func TestEventQueueRunUntil(t *testing.T) {
	var q EventQueue
	var fired []int
	for _, at := range []int{1, 5, 10} {
		at := at
		q.Schedule(at, func() { fired = append(fired, at) })
	}
	if n := q.RunUntil(5); n != 2 {
		t.Fatalf("RunUntil fired %d", n)
	}
	if q.Len() != 1 {
		t.Fatalf("pending = %d", q.Len())
	}
	q.Drain()
	if len(fired) != 3 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEventQueueSchedulingDuringRun(t *testing.T) {
	var q EventQueue
	var fired []int
	q.Schedule(1, func() {
		fired = append(fired, 1)
		q.Schedule(2, func() { fired = append(fired, 2) })
	})
	q.Drain()
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("chained event lost: %v", fired)
	}
}

func TestEventQueuePastClamped(t *testing.T) {
	var q EventQueue
	var fired []int
	q.Schedule(10, func() {
		fired = append(fired, 10)
		q.Schedule(3, func() { fired = append(fired, 3) }) // in the past
	})
	q.Drain()
	if len(fired) != 2 {
		t.Fatalf("past event dropped: %v", fired)
	}
	if q.Now() != 10 {
		t.Fatalf("Now moved backwards: %d", q.Now())
	}
}
