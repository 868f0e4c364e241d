package guestvm

import (
	"slices"
	"testing"
)

// A released memory's pages and groups map the next memories' pages.
// These tests hold the two ways that can go wrong: a page that reaches
// its next memory still holding its last owner's bytes, and a page
// mapped by two live memories at once.

// freePages takes every page off the non-strict free list, top first.
func freePages() (out []*[PageSize]byte) {
	for {
		p, ok := pageFree[0].Get()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// putPagesBack returns pages taken by freePages in their order.
func putPagesBack(ps []*[PageSize]byte) {
	slices.Reverse(ps)
	pageFree[0].Put(ps...)
}

// dirtyMemory maps n pages from 0x10000 up, every byte 0xa5, and code
// marks on the first one.
func dirtyMemory(t *testing.T, strict bool, n int) *Memory {
	t.Helper()
	m := NewMemory(strict)
	var img [PageSize]byte
	for i := range img {
		img[i] = 0xa5
	}
	for k := 0; k < n; k++ {
		m.InstallPage(0x10000+uint32(k)*PageSize, &img)
	}
	m.markCode(0x10000, 0x10001)
	return m
}

// pagesOf returns every page m maps.
func pagesOf(m *Memory) []*[PageSize]byte {
	var out []*[PageSize]byte
	m.forEachPage(func(_ uint32, p *[PageSize]byte) { out = append(out, p) })
	return out
}

// TestRecycledPageReadsZero: a non-strict memory maps a page another
// memory released zero-filled, at the address the page had before and
// at another, and a recycled group carries no code marks; a strict
// memory's InstallPage overwrites every byte of a recycled page.
func TestRecycledPageReadsZero(t *testing.T) {
	const n = 8
	a := dirtyMemory(t, false, n)
	released := pagesOf(a)
	a.Release()
	if a.PageCount() != 0 || a.HasPage(0x10000) {
		t.Fatalf("released memory still maps %d pages", a.PageCount())
	}

	b := NewMemory(false)
	for k := 0; k < n; k++ {
		base := uint32(0x10000)
		if k%2 == 1 {
			base = 0x400000
		}
		addr := base + uint32(k)*PageSize
		for off := uint32(0); off < PageSize; off += 8 {
			if v, err := b.Load64(addr + off); err != nil || v != 0 {
				t.Fatalf("fresh page %#x reads %#x at +%#x (%v)", addr, v, off, err)
			}
		}
		if err := b.StoreCheck(addr); err != nil {
			t.Fatalf("store to fresh page %#x: %v", addr, err)
		}
	}
	recycled := 0
	for _, p := range pagesOf(b) {
		if slices.Contains(released, p) {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatal("no released page was mapped again; the test checked nothing")
	}

	b.Release()

	var img [PageSize]byte
	for i := range img {
		img[i] = byte(i)
	}
	d := dirtyMemory(t, true, 1)
	dirty, _ := d.Page(0x10000)
	d.Release()
	c := NewMemory(true)
	c.InstallPage(0x20000, &img)
	p, err := c.Page(0x20000)
	if err != nil || p != dirty || *p != img {
		t.Fatalf("installed page differs from its image, or is not the released one (%v)", err)
	}
}

// TestReleaseKeepsPageOrder: a memory that maps pages in the order the
// last memory of its mode did gets the same host pages for the same
// page numbers, so a session's pages keep the address order the
// allocator gave the first one.
func TestReleaseKeepsPageOrder(t *testing.T) {
	held := freePages()
	defer putPagesBack(held)

	touch := func() (*Memory, []*[PageSize]byte) {
		m := NewMemory(false)
		for k := uint32(0); k < 40; k++ {
			if _, err := m.Load8(0x3ff000 + k*PageSize); err != nil { // crosses a group
				t.Fatal(err)
			}
		}
		return m, pagesOf(m)
	}
	a, first := touch()
	a.Release()
	b, second := touch()
	if !slices.Equal(first, second) {
		t.Fatal("the second memory mapped the released pages in another order")
	}
	b.Release()
	freePages()
}

// TestReleaseTwice: a memory released twice hands each page back once,
// so two memories that then map pages never share one.
func TestReleaseTwice(t *testing.T) {
	const n = 16
	a := dirtyMemory(t, false, n)
	a.Release()
	a.Release()

	free := freePages()
	seen := make(map[*[PageSize]byte]bool, len(free))
	for _, p := range free {
		if seen[p] {
			putPagesBack(free)
			t.Fatalf("page %p is on the free list twice", p)
		}
		seen[p] = true
	}
	putPagesBack(free)

	b, c := NewMemory(false), NewMemory(false)
	for k := 0; k < n; k++ {
		if _, err := b.Load8(0x10000 + uint32(k)*PageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Load8(0x10000 + uint32(k)*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	inB := make(map[*[PageSize]byte]bool)
	for _, p := range pagesOf(b) {
		if inB[p] {
			t.Fatalf("page %p is mapped twice in one memory", p)
		}
		inB[p] = true
	}
	for _, p := range pagesOf(c) {
		if inB[p] {
			t.Fatalf("page %p is mapped in two live memories", p)
		}
	}
	b.Release()
	c.Release()
}
