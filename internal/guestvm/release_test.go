package guestvm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"darco/internal/freelist"
	"darco/internal/guest"
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
	slices.Reverse(xs)
	l.Put(xs...)
}

// TestRecycledDirectory: a released memory hands back its directory
// cleared, so the memory that takes it next maps none of the released
// memory's groups; and a released memory used again takes a directory
// of its own, never the one the next memory took.
func TestRecycledDirectory(t *testing.T) {
	heldDirs, heldGroups := drain(&dirFree), drain(&groupFree)
	defer refill(&dirFree, heldDirs)
	defer refill(&groupFree, heldGroups)

	a := dirtyMemory(t, false, 4)
	if _, err := a.Load8(0x800000); err != nil { // a second group
		t.Fatal(err)
	}
	dir := a.groups
	a.Release()
	if a.groups != nil {
		t.Fatal("a released memory keeps its directory")
	}
	for gi, g := range dir {
		if g != nil {
			t.Fatalf("the released directory still holds group %d", gi)
		}
	}

	b := NewMemory(true)
	var img [PageSize]byte
	b.InstallPage(0x1000000, &img) // another group than a's
	if b.groups != dir {
		t.Fatal("the next memory did not take the released directory")
	}
	c := NewMemory(false)
	if _, err := c.Load8(0x10000); err != nil { // takes a released group
		t.Fatal(err)
	}
	if b.HasPage(0x10000) || b.PageCount() != 1 {
		t.Fatalf("the memory with the recycled directory maps another memory's page (%d pages)", b.PageCount())
	}
	if _, err := a.Load8(0x10000); err != nil {
		t.Fatal(err)
	}
	if a.groups == nil || a.groups == b.groups || a.groups == c.groups {
		t.Fatal("a released memory used again shares a live memory's directory")
	}
	a.Release()
	b.Release()
	c.Release()
}

// chainProgram assembles n blocks, each one instruction and a jump to
// the next, then a halt.
func chainProgram(t *testing.T, n int) *guest.Image {
	t.Helper()
	var src strings.Builder
	src.WriteString(".org 0x1000\nstart:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "b%d:\n    inc eax\n    jmp b%d\n", i, i+1)
	}
	fmt.Fprintf(&src, "b%d:\n    halt\n", n)
	im, err := guest.Assemble(src.String())
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// decodeAll decodes the n+1 blocks of chainProgram through d, in order.
func decodeAll(t *testing.T, d *DecodeCache, mem *Memory, im *guest.Image, n int) (out []*Block) {
	t.Helper()
	for i := 0; i <= n; i++ {
		b, _, err := d.Decode(mem, nil, im.Labels[fmt.Sprintf("b%d", i)])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestCodeTableReleaseTwice: a table released twice, after two front
// ends decoded into it (one a block of its own) and its slot array grew
// twice, hands each block chunk, instruction chunk and slot array back
// once, each zero, and each front end's decode scratch once; the front
// ends then find nothing cached.
func TestCodeTableReleaseTwice(t *testing.T) {
	heldB, heldI, heldD := drain(&blockFree), drain(&instFree), drain(&scratchFree)
	defer refill(&blockFree, heldB)
	defer refill(&instFree, heldI)
	defer refill(&scratchFree, heldD)
	var heldS [len(slotFree)][]*codeSlots
	for i := range slotFree {
		heldS[i] = drain(&slotFree[i])
	}
	defer func() {
		for i := range slotFree {
			refill(&slotFree[i], heldS[i])
		}
	}()

	const n = 100 // past 48 and 96 blocks: 64 → 128 → 256 slots
	im := chainProgram(t, n)
	memA, memB := NewMemory(false), NewMemory(false)
	for _, m := range []*Memory{memA, memB} {
		if err := m.LoadImage(im); err != nil {
			t.Fatal(err)
		}
	}
	if err := memB.Store8(im.Labels["b7"], byte(guest.HALT)); err != nil { // b's own block
		t.Fatal(err)
	}
	var a, b DecodeCache
	b.Share(a.Table())
	decodeAll(t, &a, memA, im, n)
	decodeAll(t, &b, memB, im, n)
	if b.front.own == nil {
		t.Fatal("the second front end decoded no block of its own")
	}
	tab := a.Table()
	tab.Release()
	tab.Release()

	if a.Cached(im.Entry) != nil || b.Cached(im.Labels["b7"]) != nil {
		t.Fatal("a front end of the released table still finds a block")
	}
	seen := make(map[any]bool)
	once := func(what string, p any) {
		if seen[p] {
			t.Fatalf("a %s is on its free list twice", what)
		}
		seen[p] = true
	}
	blocks, insts := drain(&blockFree), drain(&instFree)
	if len(blocks) != 2 || len(insts) != 2 {
		t.Fatalf("%d block and %d instruction chunks on the lists, want 2 of each (one per front end)", len(blocks), len(insts))
	}
	for _, ch := range blocks {
		once("block chunk", &ch[0])
		for i := range ch {
			if ch[i].PC != 0 || ch[i].Insts != nil || ch[i].seen.Load() != 0 || ch[i].succ != [2]*Block{} {
				t.Fatal("a released block chunk is not zero")
			}
		}
	}
	for _, ch := range insts {
		once("instruction chunk", &ch[0])
		if slices.ContainsFunc(ch, func(in guest.Inst) bool { return in != guest.Inst{} }) {
			t.Fatal("a released instruction chunk is not zero")
		}
	}
	arrays := 0
	for i := range slotFree {
		for _, s := range drain(&slotFree[i]) {
			once("slot array", s)
			arrays++
			if len(s.slot) != 1<<i {
				t.Fatalf("a slot array of %d on the list of %d", len(s.slot), 1<<i)
			}
			for j := range s.slot {
				if s.slot[j].Load() != nil {
					t.Fatal("a released slot array holds a block")
				}
			}
		}
	}
	if arrays != 3 {
		t.Fatalf("%d slot arrays on the lists, want 3", arrays)
	}
	scratches := drain(&scratchFree)
	if len(scratches) != 2 {
		t.Fatalf("%d decode scratches on the list, want 2 (one per front end)", len(scratches))
	}
	for _, sc := range scratches {
		once("decode scratch", &sc[:1][0])
		if len(sc) != 0 || cap(sc) == 0 {
			t.Fatalf("a released decode scratch has length %d and capacity %d", len(sc), cap(sc))
		}
	}
	top := &scratches[0][:1][0]
	refill(&scratchFree, scratches)
	if _, _, err := a.Decode(memA, nil, im.Entry); err != nil {
		t.Fatal(err)
	}
	if n := scratchFree.Len(); n != 1 || &a.front.scratch[:1][0] != top {
		t.Fatalf("a front end that decoded again did not take the last released scratch (%d left on the list)", n)
	}
}

// TestCodeTableReleaseKeepsOrder: the next table cuts the same blocks,
// decoded in the same order, from the released table's chunks at the
// same places, so a session's decoded code keeps the layout the first
// one had.
func TestCodeTableReleaseKeepsOrder(t *testing.T) {
	heldB, heldI := drain(&blockFree), drain(&instFree)
	defer refill(&blockFree, heldB)
	defer refill(&instFree, heldI)

	const n = 600 // three block chunks
	im := chainProgram(t, n)
	mem := NewMemory(false)
	if err := mem.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	var a DecodeCache
	first := decodeAll(t, &a, mem, im, n)
	a.Table().Release()
	var b DecodeCache
	second := decodeAll(t, &b, mem, im, n)
	for i := range first {
		if first[i] != second[i] || &first[i].Insts[0] != &second[i].Insts[0] {
			t.Fatalf("block %d was cut from another place than the released table's", i)
		}
	}
	b.Table().Release()
	drain(&blockFree)
	drain(&instFree)
}
