package tol

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"darco/internal/codecache"
	"darco/internal/guest"
	"darco/internal/host"
	"darco/internal/workload"
)

// The translation scratch is reset, not reallocated, per region, so the
// failure mode it adds is state leaking from one translation into the
// next, or a finished block still pointing into it. These tests
// translate regions of very different sizes back to back on one TOL.

// scratchProgram has a hot loop whose one basic block is long — loads,
// stores, FP and flag traffic, some 45 guest instructions — followed by
// a two-instruction block.
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
	if len(got[0].Code) < 20*len(got[1].Code) {
		t.Fatalf("superblock (%d host insns) is not large beside the basic block (%d)",
			len(got[0].Code), len(got[1].Code))
	}
	for i, blk := range got {
		fresh, _, _ := warmTOL(t)
		fresh.scratch = new(scratch) // not one from the free list
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

// translations runs im to the guest's exit on a TOL alone, starting
// with scratch sc (nil: borrowed from the free list at the first
// translation), and returns a copy of every block it translated, taken
// in the observer, before anything runs or chains the block.
func translations(im *guest.Image, sc *scratch) ([]codecache.Block, *TOL, error) {
	var tl *TOL
	var blocks []codecache.Block
	var err error
	cfg := DefaultConfig()
	cfg.OnTranslation = func(ev TranslationEvent) {
		if ev.Kind != TransBB && ev.Kind != TransSB {
			return
		}
		blk, ok := tl.Cache.Lookup(ev.Entry)
		if !ok {
			err = fmt.Errorf("translation %v @%#x not resident in its own observer", ev.Kind, ev.Entry)
			return
		}
		c := *blk
		c.Code, c.Exits, c.BBs = slices.Clone(blk.Code), slices.Clone(blk.Exits), slices.Clone(blk.BBs)
		blocks = append(blocks, c)
	}
	if tl, err = loadTOL(im, cfg); err != nil {
		return nil, nil, err
	}
	tl.scratch = sc
	if rerr := runAlone(tl); rerr != nil {
		return nil, nil, rerr
	}
	return blocks, tl, err
}

// digests returns BlockDigest of each block tl translated.
func digests(t *testing.T, blocks []codecache.Block, tl *TOL) []string {
	t.Helper()
	out := make([]string, len(blocks))
	for i := range blocks {
		out[i] = BlockDigest(t, &blocks[i], tl.Mem)
	}
	return out
}

// suiteImage generates a roster profile at scale.
func suiteImage(t *testing.T, name string, scale float64) *guest.Image {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	im, err := p.Scale(scale).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// freeScratches takes every scratch off the free list, top first.
func freeScratches() (out []*scratch) {
	for {
		s, ok := scratchFree.Get()
		if !ok {
			return out
		}
		out = append(out, s)
	}
}

// putBack returns scratches taken by freeScratches in their order.
func putBack(ss []*scratch) {
	slices.Reverse(ss)
	scratchFree.Put(ss...)
}

// detachScratch removes s from the free list and returns how many times
// the list held it.
func detachScratch(s *scratch) int {
	all := freeScratches()
	n := len(all)
	all = slices.DeleteFunc(all, func(f *scratch) bool { return f == s })
	putBack(all)
	return n - len(all)
}

// checkFreeListOwners fails t if the free list holds a scratch twice:
// two TOLs would then borrow it at once.
func checkFreeListOwners(t *testing.T) {
	t.Helper()
	all := freeScratches()
	defer putBack(all)
	seen := make(map[*scratch]bool, len(all))
	for _, s := range all {
		if seen[s] {
			t.Fatalf("the free list holds scratch %p twice", s)
		}
		seen[s] = true
	}
}

// TestBorrowedScratchMatchesFreshTOL: a TOL gives its scratch back when
// the guest halts, and the scratch then translates another program
// exactly as a fresh one does, while nothing the halted TOL keeps
// aliases it. TOL A runs scratchProgram to halt; TOL B runs a suite
// profile on A's scratch, taken off the free list and handed over
// directly, and on a fresh one.
func TestBorrowedScratchMatchesFreshTOL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BBThreshold = 2
	cfg.SBThreshold = 20
	a := setupTOL(t, scratchProgram(), cfg)
	s := a.work()
	if _, err := a.Run(0); err != nil {
		t.Fatal(err)
	}
	if !a.Halted() || a.scratch != nil {
		t.Fatalf("after the run: halted %v, scratch still held %v", a.Halted(), a.scratch != nil)
	}
	if n := detachScratch(s); n != 1 {
		t.Fatalf("A's halt put its scratch on the free list %d times, want 1", n)
	}
	if a.Stats.SBTranslations == 0 {
		t.Fatal("A promoted no superblock; its scratch would not be warm")
	}
	resident := a.Cache.Blocks()
	before := make([]codecache.Block, len(resident))
	for i, blk := range resident {
		before[i] = codecache.Block{Code: slices.Clone(blk.Code), Exits: slices.Clone(blk.Exits), BBs: slices.Clone(blk.BBs)}
	}

	im := suiteImage(t, "429.mcf", 0.05)
	onA, b, err := translations(im, s)
	if err != nil {
		t.Fatal(err)
	}
	fresh, bFresh, err := translations(im, new(scratch))
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.SBTranslations == 0 {
		t.Fatal("B promoted no superblock")
	}
	if n := detachScratch(s); n != 1 {
		t.Fatalf("B's halt put A's scratch on the free list %d times, want 1", n)
	}
	checkFreeListOwners(t)
	got, want := digests(t, onA, b), digests(t, fresh, bFresh)
	if len(got) != len(want) {
		t.Fatalf("B on A's scratch made %d translations, on a fresh scratch %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("translation %d @%#x on A's scratch %s, on a fresh scratch %s", i, onA[i].Entry, got[i], want[i])
		}
	}
	for i, blk := range resident {
		w := &before[i]
		if !slices.Equal(blk.Code, w.Code) || !slices.Equal(blk.Exits, w.Exits) || !slices.Equal(blk.BBs, w.BBs) {
			t.Errorf("A's block %d @%#x changed while B translated on A's scratch", blk.ID, blk.Entry)
		}
	}
}

// TestScratchFreeListAcrossGoroutines: TOLs running to halt on several
// goroutines at once, each borrowing its scratch from the free list and
// handing it back, make the translations a TOL makes on a fresh
// scratch. The free list is all their scratches pass through, so -race
// checks the hand-off here.
func TestScratchFreeListAcrossGoroutines(t *testing.T) {
	im, err := guest.Assemble(scratchProgram())
	if err != nil {
		t.Fatal(err)
	}
	images := []*guest.Image{im, suiteImage(t, "429.mcf", 0.05), suiteImage(t, "433.milc", 0.05)}
	want := make([][]string, len(images))
	for i, im := range images {
		blocks, tl, err := translations(im, new(scratch))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = digests(t, blocks, tl)
	}
	const workers, runs = 4, 3
	type result struct {
		img    int
		blocks []codecache.Block
		tl     *TOL
		err    error
	}
	results := make([][]result, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range runs {
				i := (w + k) % len(images)
				blocks, tl, err := translations(images[i], nil)
				results[w] = append(results[w], result{i, blocks, tl, err})
			}
		}()
	}
	wg.Wait()
	for w := range results {
		for k, r := range results[w] {
			if r.err != nil {
				t.Fatalf("worker %d run %d: %v", w, k, r.err)
			}
			if got := digests(t, r.blocks, r.tl); !slices.Equal(got, want[r.img]) {
				t.Errorf("worker %d run %d (image %d): %d translations differ from a fresh scratch's %d",
					w, k, r.img, len(got), len(want[r.img]))
			}
			if r.tl.scratch != nil {
				t.Errorf("worker %d run %d: the halted TOL still holds its scratch", w, k)
			}
		}
	}
	checkFreeListOwners(t)
}
