package codecache

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"darco/internal/freelist"
	"darco/internal/host"
)

// freeChunks takes every chunk off the free list, top first.
func freeChunks() (out [][]host.Inst) {
	for {
		ch, ok := chunkFree.Get()
		if !ok {
			return out
		}
		out = append(out, ch)
	}
}

// putChunksBack returns chunks taken by freeChunks in their order.
func putChunksBack(chs [][]host.Inst) {
	slices.Reverse(chs)
	chunkFree.Put(chs...)
}

// overlaps reports whether two slices share an element.
func overlaps(a, b []host.Inst) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(host.Inst{})
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*size && b0 < a0+uintptr(len(a))*size
}

// fill writes tag into every instruction of code.
func fill(code []host.Inst, tag int32) {
	for i := range code {
		code[i] = host.Inst{Op: host.NOPH, Imm: tag}
	}
}

// holds reports whether every instruction of code still carries tag.
func holds(code []host.Inst, tag int32) bool {
	for _, in := range code {
		if in.Imm != tag {
			return false
		}
	}
	return true
}

// TestCodeSlicesAreDisjoint: the slices Code hands out, chunk-sized and
// longer ones included, never share an instruction, and each has
// exactly its length as capacity.
func TestCodeSlicesAreDisjoint(t *testing.T) {
	c := New(0)
	var got [][]host.Inst
	for i, n := range []int{1, 7, ChunkInsts - 3, 5, ChunkInsts, ChunkInsts + 1, 2, 300} {
		code := c.Code(n)
		if len(code) != n || cap(code) != n {
			t.Fatalf("Code(%d): len %d cap %d", n, len(code), cap(code))
		}
		fill(code, int32(i))
		for _, prev := range got {
			if overlaps(prev, code) {
				t.Fatalf("Code(%d) overlaps an earlier block's code", n)
			}
		}
		got = append(got, code)
	}
	for i, code := range got {
		if !holds(code, int32(i)) {
			t.Fatalf("block %d's code was overwritten", i)
		}
	}
	c.Release()
}

// TestFlushKeepsDroppedCode: a flush leaves its chunks to the collector,
// so a block it dropped — the one whose insertion flushed, above all —
// keeps its code while the cache translates on, and Release hands back
// only the chunks cut since the flush.
func TestFlushKeepsDroppedCode(t *testing.T) {
	held := freeChunks()
	defer putChunksBack(held)

	c := New(64)
	first := c.Code(40)
	fill(first, 1)
	c.Insert(&Block{Entry: 0x1000, Code: first})
	b := &Block{Entry: 0x2000, Code: c.Code(40)}
	fill(b.Code, 2)
	if !c.Insert(b) {
		t.Fatal("the second block did not flush")
	}
	if n := chunkFree.Len(); n != 0 {
		t.Fatalf("the flush put %d chunks on the free list", n)
	}
	for i := 0; i < 2*ChunkInsts/40; i++ {
		fill(c.Code(40), 3)
	}
	if !holds(first, 1) || !holds(b.Code, 2) {
		t.Fatal("a block dropped by the flush saw another block's code")
	}
	want := c.slabs.code.Chunks()
	c.Release()
	if n := chunkFree.Len(); n != want {
		t.Fatalf("Release put %d chunks on the free list, want the %d cut since the flush", n, want)
	}
	for _, ch := range freeChunks() {
		if overlaps(ch, first) || overlaps(ch, b.Code) {
			t.Fatal("a chunk holding a flushed block's code is on the free list")
		}
	}
}

// TestReleaseRecyclesChunks: Release empties the cache, the next cache
// cuts its code from the released chunk, and a second Release hands
// nothing back twice.
func TestReleaseRecyclesChunks(t *testing.T) {
	held := freeChunks()
	defer putChunksBack(held)

	a := New(0)
	b := &Block{Entry: 0x1000, Code: a.Code(10)}
	fill(b.Code, 1)
	a.Insert(b)
	a.Release()
	a.Release()
	if a.Len() != 0 || a.Used() != 0 {
		t.Fatalf("released cache holds %d blocks, %d insns", a.Len(), a.Used())
	}
	if _, ok := a.Lookup(0x1000); ok {
		t.Fatal("released cache still finds its block")
	}
	if n := chunkFree.Len(); n != 1 {
		t.Fatalf("free list holds %d chunks after two releases of one chunk", n)
	}
	next := New(0).Code(10)
	if !overlaps(next, b.Code) {
		t.Fatal("the next cache did not cut its code from the released chunk")
	}
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

// TestReleaseRecyclesRecords: Release hands the block records, exit
// tables, constituent entries and block index back once, however often
// it is called, each zero or cleared; the next cache cuts its first
// block from the same places and inserts into the same index.
func TestReleaseRecyclesRecords(t *testing.T) {
	hr, he, hp, hx := drain(&recFree), drain(&exitFree), drain(&pcFree), drain(&indexFree)
	defer refill(&recFree, hr)
	defer refill(&exitFree, he)
	defer refill(&pcFree, hp)
	defer refill(&indexFree, hx)

	a := New(0)
	b := a.NewBlock(10, 2, 3)
	b.Entry, b.Exits[1].Count, b.BBs[2] = 0x1000, 9, 0x1000
	a.Insert(b)
	byEntry := a.byEntry
	a.Release()
	a.Release()
	if a.byEntry != nil || a.blocks != nil {
		t.Fatal("a released cache keeps its block index")
	}
	if r, e, p, x := recFree.Len(), exitFree.Len(), pcFree.Len(), indexFree.Len(); r != 1 || e != 1 || p != 1 || x != 1 {
		t.Fatalf("free lists hold %d record, %d exit, %d entry chunks and %d indexes after two releases of one each", r, e, p, x)
	}
	if b.Entry != 0 || b.Code != nil || b.Exits != nil || b.BBs != nil {
		t.Fatal("a released record is not zero")
	}
	c := New(0)
	nb := c.NewBlock(10, 2, 3)
	if nb != b || &nb.Exits[0] != &b.Exits[0] || &nb.BBs[0] != &b.BBs[0] {
		t.Fatal("the next cache did not cut its block from the released slabs")
	}
	if nb.Exits[1].Count != 0 || nb.BBs[2] != 0 {
		t.Fatal("a recycled exit table or entry list is not zero")
	}
	nb.Entry = 0x2000
	c.Insert(nb)
	if len(c.byEntry) != 1 || reflect.ValueOf(c.byEntry).UnsafePointer() != reflect.ValueOf(byEntry).UnsafePointer() {
		t.Fatal("the next cache did not insert into the released, cleared index")
	}
	c.Release()
}

// TestFlushKeepsDroppedRecords: a flush leaves the record slabs to the
// collector like the code chunks, so a dropped block keeps its record,
// exit table and entries while the cache translates on.
func TestFlushKeepsDroppedRecords(t *testing.T) {
	hr, he, hp := drain(&recFree), drain(&exitFree), drain(&pcFree)
	defer refill(&recFree, hr)
	defer refill(&exitFree, he)
	defer refill(&pcFree, hp)

	c := New(64)
	first := c.NewBlock(40, 1, 1)
	first.Entry, first.Exits[0].Idx, first.BBs[0] = 0x1000, 39, 0x1000
	c.Insert(first)
	second := c.NewBlock(40, 1, 1)
	second.Entry = 0x2000
	if !c.Insert(second) {
		t.Fatal("the second block did not flush")
	}
	if r, e, p := recFree.Len(), exitFree.Len(), pcFree.Len(); r+e+p != 0 {
		t.Fatalf("the flush put %d record, %d exit and %d entry chunks on the free lists", r, e, p)
	}
	for range 2000 {
		b := c.NewBlock(1, 1, 1)
		b.Entry, b.Exits[0].Idx, b.BBs[0] = 0xdead, 7, 0xdead
	}
	if first.Entry != 0x1000 || first.Exits[0].Idx != 39 || first.BBs[0] != 0x1000 {
		t.Fatal("a block dropped by the flush saw another block's record")
	}
	c.Release()
}

// TestChainEntriesRecycled: Chain cuts a target's incoming entries from
// a slab. Invalidating the target unchains every exit in its list
// whatever order it holds them in; a flush leaves the entries to the
// collector, so a dropped block keeps its list; Release hands them back
// once, zero, for the next cache's first chain.
func TestChainEntriesRecycled(t *testing.T) {
	defer refill(&refFree, drain(&refFree))

	c := New(1000)
	dst := mkBlock(0x2000, 5)
	srcs := []*Block{mkBlock(0x1000, 5), mkBlock(0x1100, 5), mkBlock(0x1200, 5)}
	c.Insert(dst)
	for _, src := range srcs {
		src.Code[4].Target = 0x2000
		c.Insert(src)
		if err := c.Chain(src, 4, dst); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for r := dst.incoming; r != nil; r = r.next {
		n++
	}
	if n != 3 {
		t.Fatalf("incoming list holds %d entries after three chains", n)
	}
	c.Invalidate(dst)
	for _, src := range srcs {
		if src.Code[4].Op != host.EXIT || src.Exit(4).Next != nil {
			t.Fatalf("exit of block %#x not unchained", src.Entry)
		}
	}
	if c.ChainsCut != 3 {
		t.Fatalf("chains cut %d, want 3", c.ChainsCut)
	}

	kept := mkBlock(0x3000, 5)
	c.Insert(kept)
	srcs[0].Code[4].Target = 0x3000
	c.Insert(srcs[0])
	if err := c.Chain(srcs[0], 4, kept); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if n := refFree.Len(); n != 0 {
		t.Fatalf("the flush put %d entry chunks on the free list", n)
	}
	ref := kept.incoming
	c.Release()
	if ref == nil || ref.blockID != srcs[0].ID || ref.instIdx != 4 || ref.next != nil {
		t.Fatalf("a block dropped by the flush lost its incoming list: %+v", ref)
	}
	if n := refFree.Len(); n != 0 {
		t.Fatalf("release after a flush put %d entry chunks on the free list, want none", n)
	}

	a, b := mkBlock(0x1000, 5), mkBlock(0x2000, 5)
	a.Code[4].Target = 0x2000
	next := New(1000)
	next.Insert(a)
	next.Insert(b)
	if err := next.Chain(a, 4, b); err != nil {
		t.Fatal(err)
	}
	held := b.incoming
	next.Release()
	next.Release()
	if n := refFree.Len(); n != 1 {
		t.Fatalf("free list holds %d entry chunks after two releases of one", n)
	}
	if *held != (exitRef{}) {
		t.Fatal("a released incoming entry is not zero")
	}
	last := New(1000)
	a, b = mkBlock(0x1000, 5), mkBlock(0x2000, 5)
	a.Code[4].Target = 0x2000
	last.Insert(a)
	last.Insert(b)
	if err := last.Chain(a, 4, b); err != nil {
		t.Fatal(err)
	}
	if b.incoming != held {
		t.Fatal("the next cache did not cut its first chain entry from the released slab")
	}
	last.Release()
}
