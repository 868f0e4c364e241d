package tol

import (
	"testing"

	"darco/internal/freelist"
)

// drain takes every item off l, top first; refill puts them back in
// their order.
func drain[T any](l *freelist.List[T]) (out []T) {
	for {
		x, ok := l.Get()
		if !ok {
			return out
		}
		out = append(out, x)
	}
}

func refill[T any](l *freelist.List[T], xs []T) {
	for i := len(xs) - 1; i >= 0; i-- {
		l.Put(xs[i])
	}
}

// TestProfileReleaseTwice: a TOL released twice hands its profile map
// back once, cleared, and each chunk of profile entries once, zero; the
// next TOL's profile starts empty in the same map and chunks.
func TestProfileReleaseTwice(t *testing.T) {
	hm, he := drain(&profFree), drain(&profEntryFree)
	defer refill(&profFree, hm)
	defer refill(&profEntryFree, he)

	const n = 600 // two chunks of entries
	a := New(DefaultConfig())
	for pc := uint32(0); pc < n; pc++ {
		p := a.prof1(0x1000 + 4*pc)
		p.repCount, p.bbFreq, p.noTranslate = 3, 5, true
	}
	first := a.prof1(0x1000)
	a.Release()
	a.Release()
	if a.prof != nil || len(a.BBFreqSnapshot()) != 0 {
		t.Fatal("a released TOL keeps its profile")
	}
	maps, chunks := drain(&profFree), drain(&profEntryFree)
	if len(maps) != 1 || len(maps[0]) != 0 {
		t.Fatalf("%d profile maps on the list (want 1, cleared)", len(maps))
	}
	if len(chunks) != 2 || &chunks[0][0] == &chunks[1][0] {
		t.Fatalf("%d entry chunks on the list, want 2 distinct", len(chunks))
	}
	for _, ch := range chunks {
		for i := range ch {
			if ch[i] != (profEntry{}) {
				t.Fatal("a released entry chunk is not zero")
			}
		}
	}
	refill(&profFree, maps)
	refill(&profEntryFree, chunks)

	b := New(DefaultConfig())
	if p := b.prof1(0x1000); p != first || *p != (profEntry{}) {
		t.Fatal("the next TOL's first entry is not the released one, zero")
	}
	if len(b.prof) != 1 {
		t.Fatalf("the next TOL's profile holds %d entries", len(b.prof))
	}
	b.Release()
}
