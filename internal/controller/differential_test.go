package controller

import (
	"fmt"
	"strings"
	"testing"

	"darco/internal/guest"
	"darco/internal/tol"
	"darco/internal/workload"
)

// TestRandomProgramsDifferential is the central correctness property of
// the whole infrastructure: for random guest programs, the co-designed
// component — interpreter, basic-block translator, and aggressively
// optimized superblocks with control and data speculation — must
// produce exactly the architectural and memory state of the
// authoritative emulator at every synchronization point.
func TestRandomProgramsDifferential(t *testing.T) {
	n := uint64(60)
	if testing.Short() {
		n = 15
	}
	for seed := uint64(0); seed < n; seed++ {
		seed := seed
		im, err := workload.RandomProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := DefaultConfig()
		// Aggressive promotion so random programs exercise SBM.
		cfg.TOL.BBThreshold = 2
		cfg.TOL.SBThreshold = 6
		cfg.MaxGuestInsns = 30_000_000
		c, err := New(im, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := c.Run(0); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, workload.RandomProgramSource(seed))
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("seed %d: final state: %v", seed, err)
		}
	}
}

// TestRandomProgramsDifferentialMultiExit repeats the property with
// control speculation disabled (multi-exit superblocks), covering the
// other superblock shape.
func TestRandomProgramsDifferentialMultiExit(t *testing.T) {
	n := uint64(25)
	if testing.Short() {
		n = 8
	}
	for seed := uint64(100); seed < 100+n; seed++ {
		im, err := workload.RandomProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := DefaultConfig()
		cfg.TOL.BBThreshold = 2
		cfg.TOL.SBThreshold = 6
		cfg.TOL.SB.NoAsserts = true
		cfg.MaxGuestInsns = 30_000_000
		c, err := New(im, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := c.Run(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandomProgramsDifferentialEagerFlags covers the eager-flags
// ablation path of the translator.
func TestRandomProgramsDifferentialEagerFlags(t *testing.T) {
	for seed := uint64(200); seed < 215; seed++ {
		im, err := workload.RandomProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := DefaultConfig()
		cfg.TOL.BBThreshold = 2
		cfg.TOL.SBThreshold = 6
		cfg.TOL.EagerFlags = true
		cfg.MaxGuestInsns = 30_000_000
		c, err := New(im, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := c.Run(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandomProgramsTinyCache forces continual code cache flushes,
// unchaining and retranslation.
func TestRandomProgramsTinyCache(t *testing.T) {
	for seed := uint64(300); seed < 312; seed++ {
		im, err := workload.RandomProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := DefaultConfig()
		cfg.TOL.BBThreshold = 2
		cfg.TOL.SBThreshold = 6
		cfg.TOL.CacheSize = 1500 // a handful of blocks
		cfg.MaxGuestInsns = 30_000_000
		c, err := New(im, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := c.Run(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.CoD.Cache.Flushes == 0 {
			t.Logf("seed %d: no flush triggered (program too small)", seed)
		}
	}
}

// TestRegressionPrograms runs hand-written guests that once diverged
// from the authoritative emulator, or made no progress, through all
// three modes.
func TestRegressionPrograms(t *testing.T) {
	const epilogue = `
    inc ecx
    cmpri ecx, 5000
    jl loop
    movri eax, 1
    movri ebx, 0
    syscall
    halt
`
	for _, tc := range []struct {
		name, src string
		check     func(*testing.T, *Controller)
	}{
		// CSE once keyed constants on float64 ==, merging -0.0 into +0.0:
		// the superblock divided by the wrong zero and f4 went NaN
		// instead of -Inf.
		{"signed-zero", `
.org 0x1000
start:
    fldi f3, 1.0
    fldi f4, 0.0
    movri ecx, 0
loop:
    fldi f0, 0.0
    fldi f1, -0.0
    fmov f2, f3
    fdiv f2, f1
    fadd f4, f2` + epilogue, nil},
		// A load partially overlapping a store still in the gated store
		// buffer fails speculation on every execution, whatever the
		// scheduler did. Rebuilding without memory speculation is worth
		// one try; it used to be retried every SpecLimit failures, 587
		// superblock translations for this loop.
		{"partial-overlap", `
.org 0x1000
start:
    movri ebp, 0x100000
    fldi f1, 1.5
    movri ecx, 0
loop:
    fst [ebp+8], f1
    load eax, [ebp+12]` + epilogue, func(t *testing.T, c *Controller) {
			if n := c.CoD.Stats.SBTranslations; n > 2 {
				t.Errorf("%d superblock translations, want at most the original and one rebuild", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			im, err := guest.Assemble(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.MaxGuestInsns = 10_000_000
			c, err := New(im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(0); err != nil {
				t.Fatal(err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("final state: %v", err)
			}
			if c.CoD.Stats.SBTranslations == 0 {
				t.Errorf("the loop never reached a superblock")
			}
			if tc.check != nil {
				tc.check(t, c)
			}
		})
	}
}

// TestStringOpRestartsAfterPageFault runs string instructions whose
// bytes cross into a page the co-designed side has not touched yet, so
// they fault mid-way and are re-executed after the transfer. The
// interpreter once restored its pre-instruction register snapshot on a
// fault while the bytes already moved stayed moved: an overlapping MOVS
// shifted them a second time.
func TestStringOpRestartsAfterPageFault(t *testing.T) {
	// 64 distinct bytes across the 0x100000/0x101000 page boundary.
	var data strings.Builder
	data.WriteString(".org 0x100fe0\n.byte ")
	for i := 0; i < 64; i++ {
		if i > 0 {
			data.WriteString(", ")
		}
		fmt.Fprint(&data, 0x10+i)
	}
	const exit = `
    movri eax, 1
    movri ebx, 0
    syscall
    halt
`
	for _, tc := range []struct{ name, body string }{
		// The load crosses first; source and destination overlap by one.
		{"movs-overlap-load-side", `
    movri esi, 0x100ff8
    movri edi, 0x100ff7
    movri ecx, 16
    movs`},
		// The store crosses first, into a page only the store touches.
		{"movs-store-side", `
    movri esi, 0x100fe0
    movri edi, 0x200ff8
    movri ecx, 16
    movs`},
		{"stos", `
    movri eax, 0x5a
    movri edi, 0x100ff8
    movri ecx, 16
    stos`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			im, err := guest.Assemble(".org 0x1000\nstart:" + tc.body + exit + data.String() + "\n")
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(im, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(0); err != nil {
				t.Fatal(err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("final state: %v", err)
			}
			if c.PageTransfers < 3 {
				t.Errorf("%d page transfers: the string instruction did not fault mid-way", c.PageTransfers)
			}
		})
	}
}

// TestValidationCatchesInjectedCorruption checks the correctness
// machinery itself: corrupting the co-designed state must be detected.
func TestValidationCatchesInjectedCorruption(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.02).Generate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(im, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte of co-designed memory.
	pages := c.CoD.Mem.Pages()
	if len(pages) == 0 {
		t.Fatal("no pages")
	}
	// Through the page itself: the first page may hold code, which the
	// guest cannot store to.
	page, err := c.CoD.Mem.Page(pages[0])
	if err != nil {
		t.Fatal(err)
	}
	page[5] ^= 0xFF
	err = c.Validate()
	mm, ok := err.(*MismatchError)
	if !ok {
		t.Fatalf("corruption not detected: %v", err)
	}
	if mm.What != "memory" {
		t.Errorf("mismatch kind %q", mm.What)
	}
	// Register corruption too.
	page[5] ^= 0xFF
	if err := c.Validate(); err != nil {
		t.Fatalf("memory restored: %v", err)
	}
	c.CoD.CPU.R[3] ^= 1
	if err := c.Validate(); err == nil {
		t.Errorf("register corruption not detected")
	}
	_ = tol.EvHalt // keep the import for documentation links
}
