package controller

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"darco/internal/codecache"
	"darco/internal/guest"
	"darco/internal/guestvm"
)

// codeWriteProgram calls f iters times and adds what it returns to EBX;
// after each call it stores EDX = 2 over the immediate of f's
// `movri eax, 1`, so every call after the first returns 2 and a run
// that honours the store ends with EBX = 2*iters - 1. With table, the
// store goes through an address loaded from a data table instead: f's
// immediate at iteration rewriteAt, a data word at every other one, so
// the storing block is decoded, run and, as rewriteAt grows,
// translated before it first stores to code; EBX then ends at
// 2*iters - rewriteAt - 1. The program ends with halt.
func codeWriteProgram(iters, rewriteAt int, table bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, `.org 0x1000
.entry start
start:
    movri ebx, 0
    movri esi, 0
    movri ecx, @f
    addri ecx, 2
    movri edx, 2
    movri edi, @table
loop:
    call f
    addrr ebx, eax
`)
	if table {
		b.WriteString("    loadx ecx, [edi+esi<<2+0]\n")
	}
	fmt.Fprintf(&b, `    store [ecx+0], edx
    inc esi
    cmpri esi, %d
    jl loop
    halt
.org 0x1800
f:
    movri eax, 1
    ret
.org 0x10000
scratch:
    .word 0
table:
`, iters)
	for i := range iters {
		addr := 0x10000 // scratch
		if i == rewriteAt {
			addr = 0x1802 // f's immediate
		}
		fmt.Fprintf(&b, "    .word %d\n", addr)
	}
	return b.String()
}

// TestCodeWriteIsAnError holds the immutability rule end to end: a guest
// that stores to its own decoded code fails with *guestvm.CodeWriteError
// at the store's address, whether the store runs in the interpreter, in
// a basic-block translation or in a superblock, and the error is the
// same at every check interval. The cache-free reference, which has no
// decoded code to protect, runs the rewritten code; without the rule
// both emulators served the stale decode, agreed with each other and
// ended with the unrewritten answer.
func TestCodeWriteIsAnError(t *testing.T) {
	for _, c := range []struct {
		name      string
		iters     int
		rewriteAt int
		table     bool
		kind      string // what runs the storing block: "im", or a codecache.BlockKind
	}{
		{"probe", 300, 0, false, "im"},
		{"interpreted", 300, 5, true, "im"},
		{"bb-translated", 300, 60, true, codecache.KindBB.String()},
		{"superblock", 1500, 1000, true, codecache.KindSuperblock.String()},
	} {
		t.Run(c.name, func(t *testing.T) {
			im, err := guest.Assemble(codeWriteProgram(c.iters, c.rewriteAt, c.table))
			if err != nil {
				t.Fatal(err)
			}
			ref := reference(t, im)
			if got, want := ref.CPU.R[guest.EBX], uint32(2*c.iters-c.rewriteAt-1); got != want {
				t.Fatalf("reference: EBX = %d, want %d", got, want)
			}
			at := im.Labels["f"] + 2
			storePC := im.Labels["loop"] + 5 // the block after the call
			var text string
			for _, interval := range []uint64{0, 1, 777, 50_000} {
				cfg := DefaultConfig()
				cfg.CheckInterval = interval
				ctl, err := New(im, cfg)
				if err != nil {
					t.Fatal(err)
				}
				err = ctl.Run(0)
				var cw *guestvm.CodeWriteError
				if !errors.As(err, &cw) || cw.Addr != at {
					t.Fatalf("interval %d: %v (EBX = %d), want a store to guest code at %#x",
						interval, err, ctl.CoD.CPU.R[guest.EBX], at)
				}
				if ctl.targets != nil || ctl.lent {
					t.Fatalf("interval %d: the shadow outlived a failed Run", interval)
				}
				kind := "im"
				if blk, ok := ctl.CoD.Cache.Lookup(storePC); ok {
					kind = blk.Kind.String()
				}
				if kind != c.kind {
					t.Errorf("interval %d: the storing block ran as %s, want %s", interval, kind, c.kind)
				}
				if interval == 0 {
					// The store's own error: a translated store fails at
					// its instruction, not when COMMIT drains it.
					if text = err.Error(); text != cw.Error() {
						t.Errorf("error %q, want the store's own %q", text, cw.Error())
					}
				} else if err.Error() != text {
					t.Errorf("interval %d: error %q, serial run %q", interval, err, text)
				}
			}
		})
	}
}
