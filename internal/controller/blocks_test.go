package controller

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/tol"
)

// longLoop is a loop of iters iterations whose body is one straight-line
// basic block of n addri (plus the loop's inc, cmpri and jl); it writes
// EAX out through a data page above the code (a 5000-instruction body
// runs past 0x8000) and exits.
func longLoop(n, iters int) string {
	var b strings.Builder
	b.WriteString(".org 0x1000\n.entry start\nstart:\n    movri eax, 0\n    movri ecx, 0\nloop:\n")
	for i := range n {
		fmt.Fprintf(&b, "    addri eax, %d\n", i%7+1)
	}
	fmt.Fprintf(&b, `    inc ecx
    cmpri ecx, %d
    jl loop
    movri ebp, 0x40000
    store [ebp+0], eax
    movri eax, 4
    movri ebx, 1
    movri ecx, 0x40000
    movri edx, 4
    syscall
    movri eax, 1
    movri ebx, 0
    syscall
    halt
`, iters)
	return b.String()
}

// TestLongBlocks runs loops whose body is one basic block of 509 to
// 5000 instructions; at 5000 it is longer than guestvm.MaxBlockInsns,
// so both emulators cut it into pieces. Every size must run to the end,
// validate, retire what the authoritative component retires, and print
// what it prints. A block with a terminator is translated; the cut
// piece stays in the interpreter.
func TestLongBlocks(t *testing.T) {
	const iters = 400 // past the default superblock threshold
	for _, n := range []int{509, 510, 600, 5000} {
		im, err := guest.Assemble(longLoop(n, iters))
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(im, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(0); err != nil {
			t.Fatalf("body of %d: %v", n, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("body of %d: %v", n, err)
		}
		st := &c.CoD.Stats
		if st.GuestInsns() != c.X86.InsnCount {
			t.Errorf("body of %d: co-designed retired %d instructions, authoritative %d",
				n, st.GuestInsns(), c.X86.InsnCount)
		}
		ref, err := guestvm.New(im)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Run(guestvm.RunLimits{}); err != nil {
			t.Fatal(err)
		}
		if got, want := string(c.Output()), string(ref.Env.Output); got != want || len(got) != 4 {
			t.Errorf("body of %d: output %x, guestvm %x", n, got, want)
		}
		// What the cut piece leaves in the interpreter, every iteration;
		// a block with a terminator goes to the translated modes.
		inIM := uint64(0)
		if n > guestvm.MaxBlockInsns {
			inIM = guestvm.MaxBlockInsns * iters
		}
		if st.GuestInsnsIM < inIM || st.GuestInsnsIM > inIM+uint64(n+3)*20 || st.SBTranslations == 0 {
			t.Errorf("body of %d: %d instructions interpreted, %d superblocks", n, st.GuestInsnsIM, st.SBTranslations)
		}
	}
}

// TestLongBlockLockstep steps the 5000-instruction loop body one
// dispatch at a time and validates at every basic-block boundary, the
// way internal/debug's lockstep run does. The cut piece pauses mid-block;
// the translated rest retires the basic block, so each iteration must
// end block-aligned and be validated there.
func TestLongBlockLockstep(t *testing.T) {
	const iters = 400
	im, err := guest.Assemble(longLoop(5000, iters))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ValidateEveryNSyncs = 0
	c, err := New(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	aligned := 0
	for !c.CoD.Halted() {
		if err := c.Run(1); err != nil {
			t.Fatal(err)
		}
		if c.CoD.MidBB() {
			continue
		}
		aligned++
		if err := c.StepValidate(); err != nil {
			t.Fatalf("after %d block-aligned stops: %v", aligned, err)
		}
	}
	if aligned < iters || c.CoD.Stats.BBTranslations == 0 {
		t.Errorf("%d block-aligned stops over %d iterations, %d BB translations",
			aligned, iters, c.CoD.Stats.BBTranslations)
	}
}

// faultOrderProgram's block at blk stores to the data page 0x5000, then
// runs on into the code page 0x2000 through an instruction that
// straddles the boundary. Neither page is transferred when the block
// first runs.
const faultOrderProgram = `
.org 0x1000
.entry start
start:
    movri ebp, 0x5000
    movri eax, 7
    jmp blk
.org 0x1fea
blk:
    addri eax, 1
    store [ebp+4], eax
    addri eax, 2
straddle:
    movri ebx, 0x11223344
after:
    addri ebx, 1
    store [ebp+8], ebx
    movri ebx, 3
    movri eax, 1
    syscall
    halt
`

// TestFaultOrderMidBlock pins the synchronizations of faultOrderProgram
// and the co-designed statistics it ends with. Interpreted, the data
// page is requested first: the instructions before the code fault run
// before it is reported, as instruction-by-instruction execution
// would. Translated at once (BBThreshold 1), the translator asks for
// the code page first. The values are those of an interpreter that
// fetched and executed one instruction at a time.
func TestFaultOrderMidBlock(t *testing.T) {
	im, err := guest.Assemble(faultOrderProgram)
	if err != nil {
		t.Fatal(err)
	}
	if s, a := im.Labels["straddle"], im.Labels["after"]; !(s < 0x2000 && a > 0x2000) {
		t.Fatalf("the instruction at %#x..%#x does not straddle 0x2000", s, a)
	}
	for _, tc := range []struct {
		name        string
		bbThreshold uint32
		syncs       []SyncEvent
		stats       tol.Stats
	}{
		{"interpreted", 10, []SyncEvent{
			{Kind: SyncPageTransfer, Addr: 0x1000},
			{Kind: SyncPageTransfer, GuestInsns: 4, GuestBBs: 1, Addr: 0x5000}, // the store
			{Kind: SyncPageTransfer, GuestInsns: 6, GuestBBs: 1, Addr: 0x2000}, // then the straddler
			{Kind: SyncValidation, GuestInsns: 11, GuestBBs: 1},
			{Kind: SyncSyscall, GuestInsns: 12, GuestBBs: 2},
			{Kind: SyncFinal, GuestInsns: 12, GuestBBs: 2},
		}, tol.Stats{GuestInsnsIM: 12, GuestBBs: 2, Dispatches: 5, InterpBBs: 4, Syscalls: 1, PageRequests: 3}},
		{"translated at once", 1, []SyncEvent{
			{Kind: SyncPageTransfer, Addr: 0x1000},
			{Kind: SyncPageTransfer, GuestInsns: 3, GuestBBs: 1, Addr: 0x2000}, // the translator's fetch
			{Kind: SyncPageTransfer, GuestInsns: 3, GuestBBs: 1, Addr: 0x5000},
			{Kind: SyncValidation, GuestInsns: 11, GuestBBs: 1},
			{Kind: SyncSyscall, GuestInsns: 12, GuestBBs: 2},
			{Kind: SyncFinal, GuestInsns: 12, GuestBBs: 2},
		}, tol.Stats{GuestInsnsIM: 1, GuestInsnsBBM: 11, GuestBBs: 2, HostInsnsBBM: 22, Dispatches: 8,
			BBTranslations: 2, Syscalls: 1, PageRequests: 3}},
	} {
		cfg := DefaultConfig()
		cfg.TOL.BBThreshold = tc.bbThreshold
		var syncs []SyncEvent
		cfg.OnSync = func(ev SyncEvent) { syncs = append(syncs, ev) }
		c, err := New(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(0); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(syncs, tc.syncs) {
			t.Errorf("%s: synchronizations\n got %+v\nwant %+v", tc.name, syncs, tc.syncs)
		}
		if c.CoD.Stats != tc.stats {
			t.Errorf("%s: stats\n got %+v\nwant %+v", tc.name, c.CoD.Stats, tc.stats)
		}
	}
}
