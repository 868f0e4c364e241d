package tol

import (
	"testing"

	"darco/internal/codecache"
	"darco/internal/guest"
	"darco/internal/guestvm"
)

// setupTOL loads a program into a fresh co-designed component with its
// memory pre-populated (no controller in the loop).
func setupTOL(t testing.TB, src string, cfg Config) *TOL {
	t.Helper()
	im, err := guest.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := loadTOL(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// loadTOL is setupTOL for an assembled image.
func loadTOL(im *guest.Image, cfg Config) (*TOL, error) {
	tl := New(cfg)
	tl.Mem.Strict = false
	if err := tl.Mem.LoadImage(im); err != nil {
		return nil, err
	}
	tl.CPU.EIP = im.Entry
	tl.CPU.R[guest.ESP] = guestvm.StackTop
	return tl, nil
}

// runAlone runs a loaded TOL to the guest's exit, servicing syscalls in
// place.
func runAlone(tl *TOL) error {
	env := guestvm.NewEnv()
	for !tl.Halted() {
		res, err := tl.Run(0)
		if err != nil {
			return err
		}
		if res.Event != EvSyscall {
			continue
		}
		in, err := tl.Fetch(tl.CPU.EIP)
		if err != nil {
			return err
		}
		if _, err := guest.Step(&tl.CPU, tl.Mem, &in); err != nil {
			return err
		}
		if err := env.Service(&tl.CPU, tl.Mem); err != nil {
			return err
		}
		tl.ClearMidBB()
		if env.Exited {
			tl.SetHalted()
		}
	}
	return nil
}

const loopProgram = `
.org 0x1000
.entry start
start:
    movri eax, 0
    movri ecx, 0
loop:
    addri eax, 3
    inc ecx
    cmpri ecx, 2000
    jl loop
    halt
`

func TestModesProgression(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BBThreshold = 4
	cfg.SBThreshold = 20
	tl := setupTOL(t, loopProgram, cfg)
	res, err := tl.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Event != EvHalt {
		t.Fatalf("event %v", res.Event)
	}
	st := &tl.Stats
	if st.GuestInsnsIM == 0 || st.GuestInsnsBBM == 0 || st.GuestInsnsSBM == 0 {
		t.Errorf("all three modes should retire instructions: %d/%d/%d",
			st.GuestInsnsIM, st.GuestInsnsBBM, st.GuestInsnsSBM)
	}
	if st.GuestInsnsSBM < st.GuestInsnsBBM || st.GuestInsnsSBM < st.GuestInsnsIM {
		t.Errorf("hot loop should be dominated by SBM: %d/%d/%d",
			st.GuestInsnsIM, st.GuestInsnsBBM, st.GuestInsnsSBM)
	}
	if st.BBTranslations == 0 || st.SBTranslations == 0 {
		t.Errorf("translations: bb=%d sb=%d", st.BBTranslations, st.SBTranslations)
	}
	if tl.CPU.R[guest.EAX] != 6000 {
		t.Errorf("result %d", tl.CPU.R[guest.EAX])
	}
}

func TestOverheadCategoriesPopulated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BBThreshold = 4
	cfg.SBThreshold = 20
	tl := setupTOL(t, loopProgram, cfg)
	if _, err := tl.Run(0); err != nil {
		t.Fatal(err)
	}
	ov := &tl.Overhead
	for _, c := range []OverheadCat{OvInterp, OvBBTrans, OvSBTrans, OvPrologue, OvLookup, OvOther} {
		if ov.Cat[c] == 0 {
			t.Errorf("overhead category %v empty", c)
		}
	}
	if ov.Total() == 0 {
		t.Errorf("no overhead accounted")
	}
}

func TestLazyFlagsBeatEagerFlags(t *testing.T) {
	run := func(eager bool) uint64 {
		cfg := DefaultConfig()
		cfg.BBThreshold = 4
		cfg.SBThreshold = 20
		cfg.EagerFlags = eager
		tl := setupTOL(t, loopProgram, cfg)
		if _, err := tl.Run(0); err != nil {
			t.Fatal(err)
		}
		return tl.VM.AppInsns
	}
	lazy := run(false)
	eager := run(true)
	if eager <= lazy {
		t.Errorf("eager flags should cost more host instructions: lazy=%d eager=%d", lazy, eager)
	}
}

func TestChainingReducesDispatches(t *testing.T) {
	run := func(disable bool) uint64 {
		cfg := DefaultConfig()
		cfg.BBThreshold = 4
		cfg.SBThreshold = 1 << 60 // keep everything in BBM so chaining matters
		cfg.DisableChaining = disable
		tl := setupTOL(t, loopProgram, cfg)
		if _, err := tl.Run(0); err != nil {
			t.Fatal(err)
		}
		return tl.Stats.Dispatches
	}
	chained := run(false)
	unchained := run(true)
	if chained >= unchained {
		t.Errorf("chaining should reduce dispatches: with=%d without=%d", chained, unchained)
	}
}

const twoBBProgram = `
.org 0x1000
.entry start
start:
    movri eax, 0
    movri ecx, 0
loop:
    addri eax, 1
    movrr esi, ecx
    andri esi, 1023
    cmpri esi, 1023
    jne skip                 ; biased not-taken (1023/1024)
    addri eax, 100
skip:
    inc ecx
    cmpri ecx, 4000
    jl loop
    halt
`

func TestSuperblockSpansBiasedBranch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BBThreshold = 4
	cfg.SBThreshold = 20
	tl := setupTOL(t, twoBBProgram, cfg)
	if _, err := tl.Run(0); err != nil {
		t.Fatal(err)
	}
	// A superblock anchored at the loop head must span multiple BBs.
	found := false
	for _, blk := range tl.Cache.Blocks() {
		if blk.Kind == codecache.KindSuperblock && len(blk.BBs) > 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no multi-BB superblock formed")
	}
	// The rare path fires 4000/1024 ≈ 3 times; asserts must have failed
	// and recovered through the interpreter.
	if tl.VM.AssertFails == 0 {
		t.Errorf("biased path never failed its assert")
	}
	if tl.CPU.R[guest.EAX] != 4000+3*100 {
		t.Errorf("result %d", tl.CPU.R[guest.EAX])
	}
}

const phaseChangeProgram = `
.org 0x1000
.entry start
start:
    movri eax, 0
    movri ecx, 0
loop:
    movrr esi, ecx
    shrri esi, 11            ; 0 for the first 2048, then 1+
    cmpri esi, 0
    je stay                  ; taken in phase 1, not taken in phase 2
    addri eax, 2
    jmp next
stay:
    addri eax, 1
next:
    inc ecx
    cmpri ecx, 6000
    jl loop
    halt
`

func TestAssertRebuildAfterPhaseChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BBThreshold = 4
	cfg.SBThreshold = 20
	cfg.SB.AssertLimit = 8
	tl := setupTOL(t, phaseChangeProgram, cfg)
	if _, err := tl.Run(0); err != nil {
		t.Fatal(err)
	}
	if tl.Stats.AssertRebuilds == 0 {
		t.Errorf("phase change should trigger an assert rebuild (fails=%d)", tl.VM.AssertFails)
	}
	want := uint32(2048*1 + (6000-2048)*2)
	if tl.CPU.R[guest.EAX] != want {
		t.Errorf("result %d want %d", tl.CPU.R[guest.EAX], want)
	}
}

func TestSetThresholds(t *testing.T) {
	tl := New(DefaultConfig())
	tl.SetThresholds(0, 0) // clamps to 1
	bb, sb := tl.Thresholds()
	if bb != 1 || sb != 1 {
		t.Errorf("clamp: %d %d", bb, sb)
	}
	tl.SetThresholds(7, 70)
	bb, sb = tl.Thresholds()
	if bb != 7 || sb != 70 || tl.VM.HotThreshold != 70 {
		t.Errorf("set: %d %d hot=%d", bb, sb, tl.VM.HotThreshold)
	}
}

func TestIBTCStaleEntryDropped(t *testing.T) {
	cache := codecache.New(0)
	ib := NewIBTC(cache)
	b := &codecache.Block{Entry: 0x1000}
	cache.Insert(b)
	ib.Insert(0x1000, b.ID)
	if got, ok := ib.Probe(0x1000); !ok || got != b {
		t.Fatalf("probe after insert failed")
	}
	cache.Invalidate(b)
	if _, ok := ib.Probe(0x1000); ok {
		t.Fatalf("stale entry returned")
	}
	if ib.Stale != 1 || ib.Len() != 0 {
		t.Errorf("stale bookkeeping: stale=%d len=%d", ib.Stale, ib.Len())
	}
}

func TestDecodeBBStopsAtTerminators(t *testing.T) {
	src := `
.org 0x1000
    movri eax, 1
    addri eax, 2
    movs
    halt
`
	tl := setupTOL(t, src, DefaultConfig())
	bb, err := tl.bbAt(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb.insts) != 2 {
		t.Errorf("body %d insns", len(bb.insts))
	}
	if bb.term.Op != guest.MOVS {
		t.Errorf("terminator %v", bb.term.Op)
	}
	if translatable(bb.term.Op) {
		t.Errorf("movs must stay in the software layer")
	}
}

func TestUntranslatableFirstInsn(t *testing.T) {
	src := `
.org 0x1000
    movri ecx, 0
    movs
    movri eax, 1
    movri ebx, 0
    syscall
    halt
`
	cfg := DefaultConfig()
	cfg.BBThreshold = 1
	tl := setupTOL(t, src, cfg)
	res, err := tl.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Event != EvSyscall {
		t.Fatalf("event %v", res.Event)
	}
}

func TestStringInstructionViaSafetyNet(t *testing.T) {
	src := `
.org 0x1000
.entry start
start:
    movri esi, 0x3000
    movri edi, 0x4000
    movri eax, 0x41
    movri ecx, 16
    stos
    movri esi, 0x4000
    movri edi, 0x5000
    movri ecx, 16
    movs
    halt
`
	tl := setupTOL(t, src, DefaultConfig())
	if _, err := tl.Run(0); err != nil {
		t.Fatal(err)
	}
	v, _ := tl.Mem.Load8(0x5000 + 7)
	if v != 0x41 {
		t.Errorf("string copy byte %#x", v)
	}
	if tl.Stats.GuestInsnsBBM != 0 || tl.Stats.GuestInsnsSBM != 0 {
		t.Errorf("cold straight-line code should be interpreted")
	}
}
