// Package freelist is the one free-list type through which a finished
// session's bulk memory reaches the next session in the same process:
// the TOL's translation scratch, guest pages and page groups, and code
// cache chunks.
//
// A List is last in first out, so sessions run back to back hand the
// same items from each to the next, and it is guarded by a mutex: an
// item has one owner at a time — whoever took it, or the list — and
// the lock orders each owner's use after the previous one's. It is not
// a sync.Pool on purpose: a pool may drop its items at any collection,
// and a session that then allocated afresh would make the allocation
// counts the perf gate compares depend on when the collector ran.
package freelist

import "sync"

// List is a mutex-guarded LIFO of T. The zero value is an empty list.
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get pops the most recently put item; ok is false when the list is
// empty.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return x, false
	}
	x = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return x, true
}

// Put pushes items, last one on top. The caller gives up every one of
// them: it must hold no other reference it will use.
func (l *List[T]) Put(items ...T) {
	l.mu.Lock()
	l.items = append(l.items, items...)
	l.mu.Unlock()
}

// Len reports how many items the list holds.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}
