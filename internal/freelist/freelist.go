// Package freelist is the one free-list type through which a finished
// session's memory reaches the next session in the same process: the
// TOL's translation scratch, guest pages, page groups and directories,
// and the slabs (see Slab) that code cache chunks, block records,
// decoded blocks and profile entries are cut from.
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

// Slab cuts items of T from chunks of a fixed number of items, which it
// takes from a List (or allocates) and hands back at Release: objects
// that die together, a session's, are allocated as a region and freed
// at once. A chunk is zero when a slab takes it, so every item it cuts
// is zero. A Slab is used by one goroutine at a time; the zero value is
// not ready to use (see NewSlab).
type Slab[T any] struct {
	free   *List[[]T]
	size   int
	chunks [][]T // the chunks cut from, in the order taken
	rest   []T   // the uncut tail of the newest chunk
}

// NewSlab returns an empty slab of chunks of size items from free.
func NewSlab[T any](free *List[[]T], size int) Slab[T] {
	return Slab[T]{free: free, size: size}
}

// New returns one zero item.
func (s *Slab[T]) New() *T { return &s.Make(1)[0] }

// Make returns n zero items. Their capacity is n, so appending to them
// never writes into a neighbour's items. More than a chunk holds gets an
// allocation of its own, which the collector frees.
func (s *Slab[T]) Make(n int) []T {
	if n > s.size {
		return make([]T, n)
	}
	if len(s.rest) < n {
		ch, ok := s.free.Get()
		if !ok {
			ch = make([]T, s.size)
		}
		s.chunks = append(s.chunks, ch)
		s.rest = ch
	}
	out := s.rest[:n:n]
	s.rest = s.rest[n:]
	return out
}

// Chunks reports how many chunks the slab has cut from.
func (s *Slab[T]) Chunks() int { return len(s.chunks) }

// Release zeroes the slab's chunks and hands them to its list, pushed
// last first so the next slab takes them in the order this one did, and
// leaves the slab empty and usable. Every item it cut becomes invalid:
// the caller must hold none it will use. Releasing an empty slab does
// nothing.
func (s *Slab[T]) Release() {
	for i := len(s.chunks) - 1; i >= 0; i-- {
		clear(s.chunks[i])
		s.free.Put(s.chunks[i])
	}
	s.Forget()
}

// Forget empties the slab and leaves its chunks to the collector: an
// item it cut may still be in use, so no other slab may cut from them.
func (s *Slab[T]) Forget() {
	clear(s.chunks)
	s.chunks, s.rest = s.chunks[:0], nil
}
