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
