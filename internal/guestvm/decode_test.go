package guestvm

import (
	"errors"
	"strings"
	"testing"

	"darco/internal/guest"
)

// TestDecodeCache covers the block rule: a block ends with its
// terminator, or is cut at MaxBlockInsns, and both are cached; a fetch
// error leaves an uncached prefix and the error; and a block found in
// the map becomes the previous block's link.
func TestDecodeCache(t *testing.T) {
	var src strings.Builder
	src.WriteString(".org 0x1000\nstart:\n    movri eax, 1\n    jmp long\nlong:\n")
	for range MaxBlockInsns + 2 {
		src.WriteString("    nop\n")
	}
	src.WriteString("    halt\n")
	im, err := guest.Assemble(src.String())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(true)
	var d DecodeCache
	// install maps the page at pc and loads the program's bytes on it,
	// before anything is decoded from it.
	install := func(pc uint32) {
		mem.InstallPage(pc, new([PageSize]byte))
		for _, s := range im.Segments {
			for i, b := range s.Data {
				if a := s.Addr + uint32(i); a>>PageShift == pc>>PageShift {
					if err := mem.Store8(a, b); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	install(0x1000) // the cut piece's page, 0x2000, is installed below

	a, hit, err := d.Decode(mem, nil, 0x1000)
	if err != nil || hit || len(a.Insts) != 2 || a.PC != 0x1000 || a.End != im.Labels["long"] || a.Term().Op != guest.JMP {
		t.Fatalf("first block: %+v hit=%v err=%v", a, hit, err)
	}
	if again, hit, _ := d.Decode(mem, nil, 0x1000); again != a || !hit {
		t.Errorf("second decode of 0x1000 was not the cached block")
	}

	// The nops run into the page not yet installed: the prefix comes
	// back with the fault, uncached.
	long := im.Labels["long"]
	p, hit, err := d.Decode(mem, a, long)
	var pf *PageFaultError
	if !errors.As(err, &pf) || pf.Addr != 0x2000 || hit || p.Term() != nil || p.End != 0x2000 || len(p.Insts) != int(0x2000-long) {
		t.Fatalf("partial block: %d insts to %#x, hit=%v, err=%v", len(p.Insts), p.End, hit, err)
	}
	install(0x2000)
	cut, hit, err := d.Decode(mem, a, long)
	if err != nil || hit || len(cut.Insts) != MaxBlockInsns || cut.Term() != nil || cut.End != long+MaxBlockInsns {
		t.Fatalf("cut block: %d insts to %#x, hit=%v, err=%v", len(cut.Insts), cut.End, hit, err)
	}
	rest, _, err := d.Decode(mem, cut, cut.End)
	if err != nil || len(rest.Insts) != 3 || rest.Term().Op != guest.HALT {
		t.Fatalf("rest of the cut block: %d insts, err=%v", len(rest.Insts), err)
	}

	// Links: a map hit links; the link is then what prev yields.
	if b, hit, _ := d.Decode(mem, a, long); b != cut || !hit || a.succ[0] != cut {
		t.Errorf("map hit did not link 0x1000 to %#x", long)
	}

	// An undecodable byte ends the block before it, uncached.
	install(0x3000)
	if err := mem.Store8(0x3000, byte(guest.NOP)); err != nil {
		t.Fatal(err)
	}
	u, hit, err := d.Decode(mem, nil, 0x3000)
	if !errors.As(err, new(UndecodableError)) || hit || len(u.Insts) != 1 {
		t.Errorf("undecodable: %d insts, hit=%v, err=%v", len(u.Insts), hit, err)
	}
}

// TestDecodeMarksCodePages pins the immutability rule: Decode makes code
// of the pages a block was decoded from, both pages of one that
// straddles a boundary and those of an uncached prefix too. A store to
// a code page fails with *CodeWriteError at the first byte on it,
// through the store MRU or not, and leaves the page as it was; a store
// elsewhere succeeds.
func TestDecodeMarksCodePages(t *testing.T) {
	mem := NewMemory(true)
	for pc := uint32(0x1000); pc < 0x5000; pc += PageSize {
		mem.InstallPage(pc, new([PageSize]byte))
	}
	// A movri (6 bytes) two bytes before 0x3000, then a halt.
	in := guest.Inst{Op: guest.MOVri, R1: uint8(guest.EAX), Imm: 7}
	code := append(in.Encode(nil), byte(guest.HALT))
	if err := mem.LoadImage(&guest.Image{Segments: []guest.Segment{{Addr: 0x3000 - 2, Data: code}}}); err != nil {
		t.Fatal(err)
	}
	var d DecodeCache
	if b, _, err := d.Decode(mem, nil, 0x3000-2); err != nil || b.End != 0x3000+uint32(len(code))-2 {
		t.Fatalf("straddling block: %+v, %v", b, err)
	}
	// Page 0x4000 holds one nop and then an undecodable zero byte. The
	// store leaves it the store MRU as it turns to code.
	if err := mem.Store8(0x4000, byte(guest.NOP)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Decode(mem, nil, 0x4000); !errors.As(err, new(UndecodableError)) {
		t.Fatalf("prefix block: %v", err)
	}

	before := mem.Clone()
	for _, c := range []struct {
		store func() error
		at    uint32 // 0: the store succeeds
	}{
		{func() error { return mem.Store8(0x4fff, 1) }, 0x4fff},
		{func() error { return mem.Store8(0x2000, 1) }, 0x2000},
		{func() error { return mem.Store32(0x2ffc, 1) }, 0x2ffc},
		{func() error { return mem.Store64(0x3ff8, 1) }, 0x3ff8},
		{func() error { return mem.StoreCheck(0x2abc) }, 0x2abc},
		{func() error { return mem.Store32(0x1ffe, 1) }, 0x2000}, // straddles in from 0x1000
		{func() error { return mem.Store64(0x1000, 1) }, 0},
		{func() error { return mem.Store8(0x1fff, 0) }, 0}, // undo the straddler's leading bytes
		{func() error { return mem.Store8(0x1ffe, 0) }, 0},
	} {
		err := c.store()
		var cw *CodeWriteError
		switch {
		case c.at == 0 && err != nil:
			t.Errorf("store to a data page: %v", err)
		case c.at != 0 && (!errors.As(err, &cw) || cw.Addr != c.at):
			t.Errorf("store to code at %#x: %v", c.at, err)
		}
	}
	if err := mem.Store64(0x1000, 0); err != nil {
		t.Fatal(err)
	}
	if ok, at := mem.Equal(before); !ok {
		t.Errorf("a refused store wrote %#x", at)
	}
	if _, err := mem.Load32(0x2ffe); err != nil {
		t.Errorf("loads from code: %v", err)
	}
}
