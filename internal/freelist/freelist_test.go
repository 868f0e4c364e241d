package freelist

import (
	"sync"
	"testing"
)

// TestLIFO: Get returns the most recently put item first, and reports an
// empty list.
func TestLIFO(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("empty list returned an item")
	}
	l.Put(1)
	l.Put(2, 3)
	for _, want := range []int{3, 2, 1} {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = %d, %v; want %d", got, ok, want)
		}
	}
	if n := l.Len(); n != 0 {
		t.Fatalf("Len = %d after draining", n)
	}
}

// TestOneOwnerAcrossGoroutines: goroutines taking and handing back the
// same items never hold one at once, and none is lost or doubled.
func TestOneOwnerAcrossGoroutines(t *testing.T) {
	const items, workers, rounds = 8, 4, 500
	var l List[*int]
	for range items {
		l.Put(new(int))
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				p, ok := l.Get()
				if !ok {
					continue
				}
				*p++ // a second owner would race here
				l.Put(p)
			}
		}()
	}
	wg.Wait()
	seen := make(map[*int]bool)
	for {
		p, ok := l.Get()
		if !ok {
			break
		}
		if seen[p] {
			t.Fatal("an item is on the list twice")
		}
		seen[p] = true
	}
	if len(seen) != items {
		t.Fatalf("%d items on the list, want %d", len(seen), items)
	}
}

// TestSlab: a slab cuts disjoint zero items of exact capacity, gives a
// request larger than a chunk its own allocation, and Release zeroes its
// chunks and hands them back so the next slab cuts from them in the
// same order; a second Release hands back nothing.
func TestSlab(t *testing.T) {
	var free List[[]int]
	a := NewSlab(&free, 4)
	var cut [][]int
	for _, n := range []int{3, 1, 4, 2} {
		s := a.Make(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Make(%d): len %d cap %d", n, len(s), cap(s))
		}
		for i := range s {
			if s[i] != 0 {
				t.Fatalf("Make(%d)[%d] = %d, want zero", n, i, s[i])
			}
			s[i] = 7
		}
		cut = append(cut, s)
	}
	if big := a.Make(5); len(big) != 5 || a.Chunks() != 3 {
		t.Fatalf("Make(5) took a chunk: %d chunks", a.Chunks())
	}
	*a.New() = 7
	a.Release()
	a.Release()
	if n := free.Len(); n != 3 {
		t.Fatalf("%d chunks on the list after two releases of 3", n)
	}
	b := NewSlab(&free, 4)
	for _, want := range cut[:3] {
		got := b.Make(len(want))
		if &got[0] != &want[0] {
			t.Fatal("the next slab cut its items from the chunks in another order")
		}
		for i := range got {
			if got[i] != 0 {
				t.Fatalf("a recycled item reads %d, want zero", got[i])
			}
		}
	}
}

// TestSlabForget: Forget leaves the chunks to the collector, so no later
// slab cuts from them.
func TestSlabForget(t *testing.T) {
	var free List[[]int]
	a := NewSlab(&free, 4)
	kept := a.Make(2)
	a.Forget()
	a.Release()
	if n := free.Len(); n != 0 {
		t.Fatalf("%d forgotten chunks on the list", n)
	}
	if next := a.Make(2); &next[0] == &kept[0] {
		t.Fatal("a forgotten chunk was cut again")
	}
}
