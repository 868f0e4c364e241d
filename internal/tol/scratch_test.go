package tol

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"darco/internal/codecache"
	"darco/internal/guest"
	"darco/internal/host"
)

// The translation scratch is reset, not reallocated, per region, so the
// failure mode it adds is state leaking from one translation into the
// next, or a finished block still pointing into it. These tests
// translate regions of very different sizes back to back on one TOL.

// scratchProgram has a hot loop whose one basic block is long — loads,
// stores, FP and flag traffic, 4x unrolled into a superblock of some
// 180 guest instructions — followed by a two-instruction block.
func scratchProgram() string {
	var b strings.Builder
	b.WriteString(".org 0x1000\n.entry start\nstart:\n    movri ebp, 0x100000\n    movri ecx, 0\n    fldi f1, 1.5\nloop:\n")
	for k := 0; k < 5; k++ {
		fmt.Fprintf(&b, "    load eax, [ebp+%d]\n    addri eax, %d\n    store [ebp+%d], eax\n", 8*k, k+1, 8*k+4)
		fmt.Fprintf(&b, "    fld f2, [ebp+%d]\n    fmul f2, f1\n    fst [ebp+%d], f2\n", 64+8*k, 64+8*k)
		b.WriteString("    xorrr ebx, eax\n    shlri ebx, 1\n")
	}
	b.WriteString("    inc ecx\n    cmpri ecx, 200\n    jl loop\nsmall:\n    movri eax, 7\n    jmp done\ndone:\n    halt\n")
	return b.String()
}

// warmTOL runs the program to completion in BBM (promotion disabled), so
// the loop is translated and carries the edge profile superblock
// formation reads, and returns the guest PCs of its two labels.
func warmTOL(t testing.TB) (tl *TOL, loop, small uint32) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BBThreshold = 2
	cfg.SBThreshold = 1 << 40
	tl = setupTOL(t, scratchProgram(), cfg)
	if _, err := tl.Run(0); err != nil {
		t.Fatal(err)
	}
	im, err := guest.Assemble(scratchProgram())
	if err != nil {
		t.Fatal(err)
	}
	return tl, im.Labels["loop"], im.Labels["small"]
}

func superblockAt(t testing.TB, tl *TOL, pc uint32) *codecache.Block {
	t.Helper()
	plan, err := tl.formSuperblock(pc)
	if err != nil {
		t.Fatal(err)
	}
	blk, _, err := tl.translateSuperblock(plan, sbOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func bbAt(t testing.TB, tl *TOL, pc uint32) *codecache.Block {
	t.Helper()
	blk, err := tl.translateBB(tl.block(pc))
	if err != nil || blk == nil {
		t.Fatalf("translateBB(%#x) = %v, %v", pc, blk, err)
	}
	return blk
}

func TestScratchReuseMatchesFreshTOL(t *testing.T) {
	tl, loop, small := warmTOL(t)
	got := []*codecache.Block{superblockAt(t, tl, loop), bbAt(t, tl, small), superblockAt(t, tl, loop)}
	if got[0].Unrolled < 2 || len(got[0].Code) < 20*len(got[1].Code) {
		t.Fatalf("superblock (unrolled %d, %d host insns) is not large beside the basic block (%d)",
			got[0].Unrolled, len(got[0].Code), len(got[1].Code))
	}
	for i, blk := range got {
		fresh, _, _ := warmTOL(t)
		want := bbAt
		if blk.Kind == codecache.KindSuperblock {
			want = superblockAt
		}
		if w := want(t, fresh, blk.Entry); !reflect.DeepEqual(blk, w) {
			t.Errorf("translation %d (%v @%#x) on a used TOL differs from a fresh TOL's:\n%d vs %d host insns",
				i, blk.Kind, blk.Entry, len(blk.Code), len(w.Code))
		}
	}
}

// TestBlocksOwnTheirCode: blocks inserted before later translations,
// chained exits included, must read the same afterwards.
func TestBlocksOwnTheirCode(t *testing.T) {
	tl, loop, small := warmTOL(t)
	resident := tl.Cache.Blocks()
	before := make([][]host.Inst, len(resident))
	chained := 0
	for i, blk := range resident {
		before[i] = append([]host.Inst(nil), blk.Code...)
		for _, in := range blk.Code {
			if in.Op == host.CHAINED {
				chained++
			}
		}
	}
	if chained == 0 {
		t.Fatal("no chained exit resident; the test would not cover in-place patching")
	}
	superblockAt(t, tl, loop)
	bbAt(t, tl, small)
	for _, blk := range resident {
		if _, err := tl.RetranslateAtLevel(blk, LevelFull); err != nil {
			t.Fatal(err)
		}
		if _, err := tl.BuildRegionIR(blk); err != nil {
			t.Fatal(err)
		}
	}
	for i, blk := range resident {
		if !reflect.DeepEqual(blk.Code, before[i]) {
			t.Errorf("block %d @%#x changed under later translations", blk.ID, blk.Entry)
		}
	}
}

// TestWarmTranslationAllocations: what a warm translation still
// allocates is what the code cache keeps — the Block, its Code, Exits
// and BBs — on the one-loop program and on every translation of the
// BenchmarkTranslateWorkload replay.
func TestWarmTranslationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tl, loop, small := warmTOL(t)
	rp := recordTranslations(t, "ragdoll")
	for _, c := range []struct {
		name      string
		n         int // translations per call
		translate func()
	}{
		{"translateBB", 1, func() { bbAt(t, tl, small) }},
		{"translateSuperblock", 1, func() { superblockAt(t, tl, loop) }}, // formation included
		{"ragdoll replay", len(rp.steps), func() { rp.replay(t) }},
	} {
		c.translate() // warm the scratch
		if n := testing.AllocsPerRun(5, c.translate) / float64(c.n); n >= 10 {
			t.Errorf("%s: %.1f allocations per warm translation, want fewer than 10", c.name, n)
		}
	}
}
