package guestvm

import (
	"testing"

	"darco/internal/guest"
)

// TestDecodeCache covers what the emulators rely on: an instruction is
// found at the pc it was inserted under and nowhere else, a pointer from
// LookupPtr survives later Inserts (a page densely packed with one-byte
// instructions fills every storage chunk), re-inserting overwrites in
// place, and invalidating a page also drops the one before it.
func TestDecodeCache(t *testing.T) {
	var d DecodeCache
	lookup := func(pc uint32) (guest.Inst, bool) {
		if in := d.LookupPtr(pc); in != nil {
			return *in, true
		}
		return guest.Inst{}, false
	}
	if d.LookupPtr(0x1000) != nil {
		t.Fatal("empty cache hit")
	}
	const base = 0x5000
	d.Insert(base, guest.Inst{Op: guest.MOVri, Imm: -1, Size: 6})
	first := d.LookupPtr(base)
	for off := uint32(1); off < PageSize; off++ {
		d.Insert(base+off, guest.Inst{Op: guest.NOP, Imm: int32(off), Size: 1})
	}
	if first != d.LookupPtr(base) || first.Op != guest.MOVri || first.Imm != -1 {
		t.Errorf("pointer to the first instruction moved or changed after %d inserts: %+v", PageSize-1, *first)
	}
	for off := uint32(1); off < PageSize; off++ {
		if in, ok := lookup(base + off); !ok || in.Imm != int32(off) {
			t.Fatalf("offset %d: %+v, %v", off, in, ok)
		}
	}
	d.Insert(base, guest.Inst{Op: guest.HALT, Size: 1})
	if first.Op != guest.HALT || d.LookupPtr(base) != first {
		t.Errorf("re-insert did not overwrite in place: %+v", *first)
	}
	if _, ok := lookup(base + PageSize); ok {
		t.Error("hit in the following page")
	}

	// Pages are independent, and a sparse one stores what it was given.
	d.Insert(0x9ffd, guest.Inst{Op: guest.JMP, Imm: 8, Size: 5}) // straddles into 0xa000
	d.Insert(0xa002, guest.Inst{Op: guest.RET, Size: 1})
	if in, ok := lookup(0x9ffd); !ok || in.Op != guest.JMP {
		t.Errorf("straddling instruction: %+v, %v", in, ok)
	}
	if _, ok := lookup(0x9ffe); ok {
		t.Error("hit inside an instruction")
	}
	d.InvalidatePage(0xa123)
	for _, pc := range []uint32{0x9ffd, 0xa002} {
		if _, ok := lookup(pc); ok {
			t.Errorf("%#x survived the invalidation of page 0xa000", pc)
		}
	}
	if in, ok := lookup(base + 7); !ok || in.Imm != 7 {
		t.Errorf("unrelated page lost: %+v, %v", in, ok)
	}
	d.Insert(0xa002, guest.Inst{Op: guest.NOP, Size: 1})
	if in, ok := lookup(0xa002); !ok || in.Op != guest.NOP {
		t.Errorf("insert after invalidation: %+v, %v", in, ok)
	}
}
