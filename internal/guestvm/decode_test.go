package guestvm

import (
	"errors"
	"strings"
	"testing"

	"darco/internal/guest"
)

// TestDecodeCache covers the block rule: a block ends with its
// terminator, or is cut at MaxBlockInsns, and both are cached; a fetch
// error leaves an uncached prefix and the error; a block found in the
// map becomes the previous block's link; and InvalidatePage forgets the
// blocks over the page, one straddling in from the page before
// included, and every link, but keeps the blocks elsewhere.
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
	for pc := uint32(0x1000); pc < 0x3000; pc += PageSize {
		if pc != 0x2000 { // the cut piece's page, installed below
			mem.InstallPage(pc, new([PageSize]byte))
		}
	}
	load := func() {
		for _, s := range im.Segments {
			for i, b := range s.Data {
				if mem.HasPage(s.Addr + uint32(i)) {
					mem.Store8(s.Addr+uint32(i), b)
				}
			}
		}
	}
	load()

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
	mem.InstallPage(0x2000, new([PageSize]byte))
	load()
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
	d.InvalidatePage(0x2000)
	if a.succ != [2]*Block{} {
		t.Errorf("InvalidatePage kept a link")
	}
	if _, hit, _ := d.Decode(mem, nil, long); hit {
		t.Errorf("the block over page 0x2000 survived its invalidation")
	}
	if b, hit, _ := d.Decode(mem, nil, 0x1000); b != a || !hit {
		t.Errorf("the block on page 0x1000 did not survive")
	}

	// An undecodable byte ends the block before it, uncached.
	mem.Store8(long+1, 0)
	d.InvalidatePage(long + 1)
	u, hit, err := d.Decode(mem, nil, long)
	if !errors.As(err, new(UndecodableError)) || hit || len(u.Insts) != 1 {
		t.Errorf("undecodable: %d insts, hit=%v, err=%v", len(u.Insts), hit, err)
	}
}
