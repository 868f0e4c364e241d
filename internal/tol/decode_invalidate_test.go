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

// TestInstallPageInvalidatesDecode pins the fix for the seed's latent
// stale-decode bug: the TOL decode cache was append-only, so when the
// controller re-installed (or a store rewrote) a code page, fetches
// kept returning instructions decoded from the page's previous content.
func TestInstallPageInvalidatesDecode(t *testing.T) {
	tl := New(DefaultConfig())

	tl.InstallPage(0x1000, assemblePage(t, `
.org 0x1000
    movri eax, 111
    halt
`))
	in, err := tl.Fetch(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != guest.MOVri || in.Imm != 111 {
		t.Fatalf("first decode: %v imm=%d", in.Op, in.Imm)
	}

	// Re-install the page with different code at the same PC.
	tl.InstallPage(0x1000, assemblePage(t, `
.org 0x1000
    movri eax, 222
    halt
`))
	in, err = tl.Fetch(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if in.Imm != 222 {
		t.Fatalf("stale decode after re-install: %v imm=%d", in.Op, in.Imm)
	}
}

// TestInstallPageInvalidatesInterpBlocks drives the interpreter over a
// block (so it is decoded and cached whole), re-installs its code page,
// and checks the re-run executes the new code — fresh decodes, fresh
// results.
func TestInstallPageInvalidatesInterpBlocks(t *testing.T) {
	run := func(tl *TOL) uint32 {
		tl.CPU = guest.CPU{EIP: 0x1000}
		tl.CPU.R[guest.ESP] = guestvm.StackTop
		if _, err := tl.Run(0); err != nil {
			t.Fatal(err)
		}
		return tl.CPU.R[guest.EAX]
	}

	cfg := DefaultConfig()
	cfg.BBThreshold = 1 << 30 // stay in the interpreter
	tl := New(cfg)
	tl.InstallPage(0x1000, assemblePage(t, `
.org 0x1000
    movri eax, 5
    addri eax, 2
    halt
`))
	if got := run(tl); got != 7 {
		t.Fatalf("first run: eax=%d", got)
	}
	// Same entry PC, different body. Without invalidation the cached
	// interpreter block replays the old instructions.
	tl.halted = false
	tl.InstallPage(0x1000, assemblePage(t, `
.org 0x1000
    movri eax, 40
    addri eax, 2
    halt
`))
	if got := run(tl); got != 42 {
		t.Fatalf("stale interp block after re-install: eax=%d", got)
	}
}

// TestInstallPageInvalidatesTranslations covers the translated path:
// a block hot enough to be translated (and promoted) must not keep
// executing host code generated from a page's previous content after
// that page is re-installed.
func TestInstallPageInvalidatesTranslations(t *testing.T) {
	program := func(addend int) string {
		return `
.org 0x1000
.entry start
start:
    movri eax, 0
    movri ecx, 0
loop:
    addri eax, ` + map[int]string{3: "3", 7: "7"}[addend] + `
    inc ecx
    cmpri ecx, 2000
    jl loop
    halt
`
	}
	cfg := DefaultConfig()
	cfg.BBThreshold = 4
	cfg.SBThreshold = 20
	tl := New(cfg)
	run := func() uint32 {
		tl.CPU = guest.CPU{EIP: 0x1000}
		tl.CPU.R[guest.ESP] = guestvm.StackTop
		tl.halted = false
		if _, err := tl.Run(0); err != nil {
			t.Fatal(err)
		}
		return tl.CPU.R[guest.EAX]
	}

	tl.InstallPage(0x1000, assemblePage(t, program(3)))
	if got := run(); got != 6000 {
		t.Fatalf("first run: eax=%d", got)
	}
	if tl.Cache.Len() == 0 {
		t.Fatal("hot loop was never translated; test is vacuous")
	}
	tl.InstallPage(0x1000, assemblePage(t, program(7)))
	if got := run(); got != 14000 {
		t.Fatalf("stale translation after re-install: eax=%d", got)
	}
}

// TestInstallPageDropsStraddlingDecode covers the page-boundary case:
// an instruction starting on the preceding page and extending into the
// installed one must be re-decoded too.
func TestInstallPageDropsStraddlingDecode(t *testing.T) {
	tl := New(DefaultConfig())
	// movri is 6 bytes (opcode + reg + imm32); start it 2 bytes before
	// the page boundary so its immediate lives in the next page.
	startPC := uint32(0x2000 - 2)

	var lo, hi [guestvm.PageSize]byte
	in := guest.Inst{Op: guest.MOVri, R1: uint8(guest.EAX), Imm: 0x11223344}
	enc := in.Encode(nil)
	copy(lo[guestvm.PageSize-2:], enc[:2])
	copy(hi[:], enc[2:])
	tl.InstallPage(0x1000, &lo)
	tl.InstallPage(0x2000, &hi)

	got, err := tl.Fetch(startPC)
	if err != nil {
		t.Fatal(err)
	}
	if got.Imm != 0x11223344 {
		t.Fatalf("straddling decode: imm=%#x", got.Imm)
	}

	// Rewrite only the second page (the immediate's upper bytes).
	in2 := guest.Inst{Op: guest.MOVri, R1: uint8(guest.EAX), Imm: 0x55667788}
	enc2 := in2.Encode(nil)
	var hi2 [guestvm.PageSize]byte
	copy(hi2[:], enc2[2:])
	tl.InstallPage(0x2000, &hi2)

	got, err = tl.Fetch(startPC)
	if err != nil {
		t.Fatal(err)
	}
	if got.Imm != 0x55667788 {
		t.Fatalf("stale straddling decode: imm=%#x", got.Imm)
	}
}

// TestInstallPageDropsStraddlingInterpBlock covers an interpreted block
// whose bytes straddle two pages: re-installing only the second page
// must drop the cached block that begins on the first, or its replay
// keeps running the old instructions.
func TestInstallPageDropsStraddlingInterpBlock(t *testing.T) {
	program := func(addend string) *[2 * guestvm.PageSize]byte {
		im, err := guest.Assemble(`
.org 0x1ffa
    movri eax, 5
    addri eax, ` + addend + `
    halt
`)
		if err != nil {
			t.Fatal(err)
		}
		var code [2 * guestvm.PageSize]byte
		for _, s := range im.Segments {
			copy(code[s.Addr-0x1000:], s.Data)
		}
		return &code
	}
	page := func(code *[2 * guestvm.PageSize]byte, i int) *[guestvm.PageSize]byte {
		return (*[guestvm.PageSize]byte)(code[i*guestvm.PageSize:])
	}
	run := func(tl *TOL) uint32 {
		tl.CPU = guest.CPU{EIP: 0x1ffa}
		tl.CPU.R[guest.ESP] = guestvm.StackTop
		tl.halted = false
		if _, err := tl.Run(0); err != nil {
			t.Fatal(err)
		}
		return tl.CPU.R[guest.EAX]
	}

	cfg := DefaultConfig()
	cfg.BBThreshold = 1 << 30 // stay in the interpreter
	tl := New(cfg)
	old := program("2")
	tl.InstallPage(0x1000, page(old, 0))
	tl.InstallPage(0x2000, page(old, 1))
	if got := run(tl); got != 7 {
		t.Fatalf("first run: eax=%d", got)
	}
	if got := run(tl); got != 7 {
		t.Fatalf("replayed run: eax=%d", got)
	}
	// The block's first page stays as it was; only the second changes.
	tl.InstallPage(0x2000, page(program("40"), 1))
	if got := run(tl); got != 45 {
		t.Fatalf("stale straddling interp block after re-install: eax=%d", got)
	}
}

// TestFirstInstallKeepsPrecedingPage pins the first-install rule: a
// page the TOL never held has nothing derived from it, so installing it
// keeps the preceding page's decoded blocks and the links between them.
// Re-installing the same page then clears the links, as a rewrite must
// (it drops only the blocks that overlap the page;
// TestInstallPageDropsStraddlingInterpBlock has one that does).
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
	tl.InstallPage(0x2000, new([guestvm.PageSize]byte))
	if a.Next(next) != nil {
		t.Errorf("re-install of 0x2000 kept the decoded-block links")
	}
	if cached(nil, 0x1000) != a || cached(nil, next) != b {
		t.Errorf("re-install of 0x2000 dropped a block that does not overlap it")
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
