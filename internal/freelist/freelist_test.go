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
