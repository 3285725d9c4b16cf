package parallel

import (
	"runtime"
	"testing"
)

// TestFreeListKeepsBudgetPlusOne pins the free list's contract: Get hands
// back what Put kept, last in first out, survives a collection, gives a
// new zero value when the list is empty, and the list keeps at most
// Budget()+1 values.
func TestFreeListKeepsBudgetPlusOne(t *testing.T) {
	old := Budget()
	defer SetBudget(old)
	SetBudget(1)
	var l FreeList[[4]int]
	a, b, c := l.Get(), l.Get(), l.Get()
	if a == b || b == c || *a != [4]int{} {
		t.Fatal("an empty list must hand out distinct zero values")
	}
	a[0], b[0] = 1, 2
	l.Put(a)
	l.Put(b)
	l.Put(c) // beyond Budget()+1 = 2: dropped
	if got := l.Len(); got != 2 {
		t.Fatalf("list keeps %d values, want 2", got)
	}
	runtime.GC()
	runtime.GC()
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the last value Put kept")
	}
	if got := l.Get(); got != a || got[0] != 1 {
		t.Fatal("Get did not return the first value Put kept, as it was")
	}
	if got := l.Get(); got == a || got == b || got == c || *got != [4]int{} {
		t.Fatal("an emptied list must hand out a new zero value")
	}
}
