package tol

import (
	"errors"
	"fmt"
	"testing"

	"darco/internal/guest"
	"darco/internal/guestvm"
)

// assemblePage renders src into the 4 KiB page containing org.
func assemblePage(t *testing.T, src string) *[guestvm.PageSize]byte {
	t.Helper()
	im, err := guest.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var page [guestvm.PageSize]byte
	for _, s := range im.Segments {
		copy(page[s.Addr&(guestvm.PageSize-1):], s.Data)
	}
	return &page
}

// TestFirstInstallKeepsPrecedingPage pins the first-install rule: a
// page the TOL never held has nothing derived from it, so installing it
// keeps the preceding page's decoded blocks and the links between them.
func TestFirstInstallKeepsPrecedingPage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BBThreshold = 1 << 30 // stay in the interpreter
	tl := New(cfg)
	tl.InstallPage(0x1000, assemblePage(t, `
.org 0x1000
    movri eax, 5
    jmp next
next:
    halt
`))
	tl.CPU = guest.CPU{EIP: 0x1000}
	tl.CPU.R[guest.ESP] = guestvm.StackTop
	if _, err := tl.Run(0); err != nil {
		t.Fatal(err)
	}
	// cached looks pc up after prev, which links a hit to prev.
	cached := func(prev *guestvm.Block, pc uint32) *guestvm.Block {
		b, hit, err := tl.dec.Decode(tl.Mem, prev, pc)
		if err != nil || !hit {
			t.Fatalf("no cached block at %#x (%v)", pc, err)
		}
		return b
	}
	a := cached(nil, 0x1000)
	next := tl.CPU.EIP - 1 // the halt
	b := cached(a, next)
	if a.Next(next) != b {
		t.Fatalf("no link from 0x1000 to %#x", next)
	}

	tl.InstallPage(0x2000, new([guestvm.PageSize]byte))
	if cached(nil, 0x1000) != a || cached(nil, next) != b {
		t.Errorf("first install of 0x2000 dropped a block on page 0x1000")
	}
	if a.Next(next) != b {
		t.Errorf("first install of 0x2000 cleared the link from 0x1000 to %#x", next)
	}
}

// TestSecondInstallIsRefused pins that a page is installed once: a
// second InstallPage of a page the TOL holds, whether it holds code or
// not, returns an error and leaves memory, decoded blocks and
// translations as they were.
func TestSecondInstallIsRefused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BBThreshold = 4
	cfg.SBThreshold = 20
	tl := New(cfg)
	if err := tl.InstallPage(0x1000, assemblePage(t, `
.org 0x1000
    movri eax, 0
    movri ecx, 0
loop:
    addri eax, 3
    inc ecx
    cmpri ecx, 2000
    jl loop
    halt
`)); err != nil {
		t.Fatal(err)
	}
	if err := tl.InstallPage(0x2000, new([guestvm.PageSize]byte)); err != nil {
		t.Fatal(err)
	}
	tl.CPU = guest.CPU{EIP: 0x1000}
	tl.CPU.R[guest.ESP] = guestvm.StackTop
	if _, err := tl.Run(0); err != nil || tl.CPU.R[guest.EAX] != 6000 {
		t.Fatalf("run: eax=%d, %v", tl.CPU.R[guest.EAX], err)
	}
	if tl.Cache.Len() == 0 {
		t.Fatal("hot loop was never translated; test is vacuous")
	}
	// loop is the block the loop's back edge enters, decoded and
	// translated.
	const loop = 0x100c
	dec, _, err := tl.dec.Decode(tl.Mem, nil, loop)
	if err != nil {
		t.Fatal(err)
	}
	blk, ok := tl.Cache.Lookup(loop)
	if !ok {
		t.Fatalf("no translation at %#x", loop)
	}
	mem, blocks := tl.Mem.Clone(), tl.Cache.Len()
	for _, pc := range []uint32{0x1000, 0x2000} {
		var page [guestvm.PageSize]byte
		page[5] = 1
		err := tl.InstallPage(pc+5, &page)
		if want := fmt.Sprintf("tol: page %#x is already installed", pc); fmt.Sprint(err) != want {
			t.Errorf("second install of %#x: %v, want %q", pc, err, want)
		}
	}
	if ok, at := tl.Mem.Equal(mem); !ok {
		t.Errorf("a refused install changed memory at %#x", at)
	}
	if b, hit, _ := tl.dec.Decode(tl.Mem, nil, loop); b != dec || !hit {
		t.Errorf("a refused install dropped the decoded block at %#x", loop)
	}
	if b, ok := tl.Cache.Lookup(loop); !ok || b != blk || tl.Cache.Len() != blocks {
		t.Errorf("a refused install changed the code cache")
	}
}

// TestFetchErrors pins what a failed fetch returns: a page fault as the
// memory raised it (the dispatch loop turns it into a page request), and
// undecodable bytes under the TOL's own name.
func TestFetchErrors(t *testing.T) {
	tl := New(DefaultConfig())
	if _, err := tl.Fetch(0x1000); !errors.As(err, new(*guestvm.PageFaultError)) {
		t.Errorf("fetch from a missing page: %v", err)
	}
	tl.InstallPage(0x1000, new([guestvm.PageSize]byte))
	if _, err := tl.Fetch(0x1ffe); fmt.Sprint(err) != "tol: undecodable instruction at 0x1ffe" {
		t.Errorf("fetch of a zero byte: %v", err)
	}
}
