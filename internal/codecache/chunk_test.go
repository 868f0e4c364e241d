package codecache

import (
	"slices"
	"testing"
	"unsafe"

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
	want := len(c.chunks)
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
