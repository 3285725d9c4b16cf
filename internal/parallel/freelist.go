package parallel

import "sync"

// FreeList keeps idle values for reuse, such as a harness's per-run
// state. Unlike a sync.Pool, a garbage collection cannot empty it, so
// whatever a value has grown stays grown for the life of the process
// instead of being grown again after every collection. Every goroutine
// beyond the first caller that runs items holds a budget token, so at
// most Budget()+1 values are in use at once, and the list keeps no more
// than that. The zero value is an empty list.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get takes an idle value off the list, or returns a new zero value when
// none is idle.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.free)
	if k == 0 {
		return new(T)
	}
	v := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return v
}

// Put returns v to the list for a later Get; a list that already holds
// Budget()+1 values drops it.
func (l *FreeList[T]) Put(v *T) {
	l.mu.Lock()
	if len(l.free) <= Budget() {
		l.free = append(l.free, v)
	}
	l.mu.Unlock()
}

// Len reports how many idle values the list holds.
func (l *FreeList[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
