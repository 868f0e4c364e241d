package guestvm_test

import (
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/workload"
)

// The chained block path of Run against the plain one: Step never
// enters the block cache, so a VM driven by Step alone is the reference
// for everything Run may not change — architectural state, memory, the
// instruction and block counts, the block frequency distribution and
// where each limit stops.

func newVM(t *testing.T, im *guest.Image) *guestvm.VM {
	t.Helper()
	vm, err := guestvm.New(im)
	if err != nil {
		t.Fatal(err)
	}
	vm.BBFreq = make(map[uint32]uint64)
	return vm
}

func assemble(t *testing.T, src string) *guest.Image {
	t.Helper()
	im, err := guest.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// stepTo steps ref until its instruction count reaches insns (0: until
// it halts).
func stepTo(t *testing.T, ref *guestvm.VM, insns uint64) {
	t.Helper()
	if err := stepUntil(ref, insns); err != nil {
		t.Fatal(err)
	}
}

// sameCPU compares register state bit for bit (a NaN equals itself).
func sameCPU(a, b *guest.CPU) bool {
	for i := range a.F {
		if math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]) {
			return false
		}
	}
	return a.R == b.R && a.EIP == b.EIP && a.Flags == b.Flags
}

func sameState(t *testing.T, what string, vm, ref *guestvm.VM) {
	t.Helper()
	if !sameCPU(&vm.CPU, &ref.CPU) {
		t.Errorf("%s: CPU\nrun  %+v\nstep %+v", what, vm.CPU, ref.CPU)
	}
	if ok, addr := vm.Mem.Equal(ref.Mem); !ok {
		t.Errorf("%s: memory differs at %#x", what, addr)
	}
	if vm.InsnCount != ref.InsnCount || vm.BBCount != ref.BBCount || vm.Halted != ref.Halted {
		t.Errorf("%s: run %d insns %d BBs halted=%v, step %d insns %d BBs halted=%v", what,
			vm.InsnCount, vm.BBCount, vm.Halted, ref.InsnCount, ref.BBCount, ref.Halted)
	}
	if !maps.Equal(vm.BBFreq, ref.BBFreq) {
		t.Errorf("%s: block frequencies differ (%d entries vs %d)", what, len(vm.BBFreq), len(ref.BBFreq))
	}
	if string(vm.Env.Output) != string(ref.Env.Output) {
		t.Errorf("%s: output differs", what)
	}
}

func TestRunMatchesStepOnSuite(t *testing.T) {
	profiles := workload.Suites()
	if len(profiles) != 31 {
		t.Fatalf("%d profiles in the suite", len(profiles))
	}
	for _, p := range profiles {
		im, err := p.Scale(0.05).Generate()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		vm, ref := newVM(t, im), newVM(t, im)
		if reason, err := vm.Run(guestvm.RunLimits{}); err != nil || reason != guestvm.StopHalt {
			t.Fatalf("%s: run stopped for %v: %v", p.Name, reason, err)
		}
		stepTo(t, ref, 0)
		sameState(t, p.Name, vm, ref)
	}
}

// indirectCycle jumps through a four-entry table at 0x3000, one target
// after the other, 400 times: the dispatch block has more successors
// than links. Each target leaves its own mark and every fourth iteration
// makes a syscall.
const indirectCycle = `
.org 0x1000
.entry start
start:
    movri ebp, 0x3000
    movri eax, @t0
    store [ebp+0], eax
    movri eax, @t1
    store [ebp+4], eax
    movri eax, @t2
    store [ebp+8], eax
    movri eax, @t3
    store [ebp+12], eax
    movri esi, 0
    movri edi, 0
dispatch:
    movrr edx, esi
    andri edx, 3
    loadx edx, [ebp+edx<<2+0]
    jmpr edx
t0:
    addri edi, 1
    jmp next
t1:
    addri edi, 100
    jmp next
t2:
    shlri edi, 1
    jmp next
t3:
    xorri edi, 0x5a5a
    movri eax, 20
    syscall
next:
    inc esi
    cmpri esi, 400
    jl dispatch
    movri eax, 1
    movri ebx, 0
    syscall
    halt
`

func TestRunIndirectCycle(t *testing.T) {
	im := assemble(t, indirectCycle)
	vm, ref := newVM(t, im), newVM(t, im)
	if reason, err := vm.Run(guestvm.RunLimits{}); err != nil || reason != guestvm.StopHalt {
		t.Fatalf("run stopped for %v: %v", reason, err)
	}
	stepTo(t, ref, 0)
	sameState(t, "indirect cycle", vm, ref)
	if vm.BBCount < 1200 {
		t.Errorf("%d basic blocks: the cycle did not run", vm.BBCount)
	}
}

// TestRunInsnLimitMidBlock stops at every instruction count of a stretch
// that lies well inside chained execution: the stop must land on the
// exact instruction, mid-block included, and resuming must go on as if
// never stopped.
func TestRunInsnLimitMidBlock(t *testing.T) {
	im := assemble(t, indirectCycle)
	for limit := uint64(1000); limit < 1040; limit++ {
		vm, ref := newVM(t, im), newVM(t, im)
		reason, err := vm.Run(guestvm.RunLimits{InsnCount: limit})
		if err != nil || reason != guestvm.StopInsnLimit {
			t.Fatalf("limit %d: stopped for %v: %v", limit, reason, err)
		}
		if vm.InsnCount != limit {
			t.Fatalf("limit %d: stopped after %d instructions", limit, vm.InsnCount)
		}
		stepTo(t, ref, limit)
		sameState(t, "at the limit", vm, ref)
		if _, err := vm.Run(guestvm.RunLimits{}); err != nil {
			t.Fatal(err)
		}
		stepTo(t, ref, 0)
		sameState(t, "resumed", vm, ref)
	}
}

// TestRunStopAtSysAfterChaining pauses at every syscall of the cycle:
// the body of the syscall's block has retired, EIP is at the SYSCALL,
// and servicing it completes the block.
func TestRunStopAtSysAfterChaining(t *testing.T) {
	im := assemble(t, indirectCycle)
	vm, ref := newVM(t, im), newVM(t, im)
	pauses := 0
	for {
		reason, err := vm.Run(guestvm.RunLimits{StopAtSys: true})
		if err != nil {
			t.Fatal(err)
		}
		if reason == guestvm.StopHalt {
			break
		}
		if reason != guestvm.StopSyscall {
			t.Fatalf("stopped for %v", reason)
		}
		pauses++
		in, err := vm.Fetch(vm.CPU.EIP)
		if err != nil {
			t.Fatal(err)
		}
		if in.Op != guest.SYSCALL {
			t.Fatalf("pause %d at %v, not a syscall", pauses, in.Op)
		}
		stepTo(t, ref, vm.InsnCount)
		sameState(t, "paused", vm, ref)
		if err := vm.ServiceSyscallAt(); err != nil {
			t.Fatal(err)
		}
		stepTo(t, ref, vm.InsnCount)
		sameState(t, "serviced", vm, ref)
	}
	if pauses != 101 {
		t.Errorf("%d pauses, want 100 getpid calls and the exit", pauses)
	}
	sameState(t, "end", vm, ref)
}

// stepUntil steps ref until its instruction count reaches insns (0: no
// limit), it halts, or a step fails, and returns that step's error.
func stepUntil(ref *guestvm.VM, insns uint64) error {
	for !ref.Halted && (insns == 0 || ref.InsnCount < insns) {
		if _, err := ref.Step(); err != nil {
			return err
		}
	}
	return nil
}

// sameErr compares two errors by their text (nil only equals nil).
func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: run error %v, step error %v", what, got, want)
	}
}

// TestRunMatchesStepOnBlockEdges runs the two blocks Run cannot take in
// one piece against a Step-only VM: a basic block longer than the
// decoded-block cap, ending in the exit syscall, and a block with an
// undecodable byte in its middle; and a block that is only a syscall.
// Each runs without a limit, stopped at every instruction count across
// it (then resumed), and paused at every syscall.
func TestRunMatchesStepOnBlockEdges(t *testing.T) {
	var long strings.Builder
	long.WriteString(".org 0x1000\n.entry start\nstart:\n    movri ebp, 0x80000\n    movri eax, 0\n")
	for i := range 4200 {
		if i%7 == 0 {
			fmt.Fprintf(&long, "    store [ebp+%d], eax\n", 4*(i%64))
		} else {
			long.WriteString("    addri eax, 3\n")
		}
	}
	long.WriteString("    movri ebx, 0\n    movri eax, 1\n    syscall\n    halt\n")
	const bad = `
.org 0x1000
.entry start
start:
    movri ebp, 0x3000
    movri eax, 5
    store [ebp+0], eax
    addri eax, 1
    .byte 0
    addri eax, 1
    movri eax, 1
    syscall
    halt
`
	// A block that is only a SYSCALL: StopAtSys pauses before running
	// anything of it.
	const lone = `
.org 0x1000
.entry start
start:
    movri eax, 20
    jmp sys
sys:
    syscall
    movri ebx, 0
    movri eax, 1
    syscall
    halt
`
	for _, prog := range []struct {
		name string
		src  string
	}{{"long", long.String()}, {"undecodable", bad}, {"lone syscall", lone}} {
		im := assemble(t, prog.src)
		vm, ref := newVM(t, im), newVM(t, im)
		_, err := vm.Run(guestvm.RunLimits{})
		wantErr := stepUntil(ref, 0)
		sameErr(t, prog.name, err, wantErr)
		sameState(t, prog.name, vm, ref)
		total := ref.InsnCount

		step := uint64(1)
		if testing.Short() {
			step = 7 // every limit takes ~5 s, ~1 min under -race
		}
		ref = newVM(t, im)
		for limit := uint64(1); limit <= total; limit += step {
			what := fmt.Sprintf("%s, limit %d", prog.name, limit)
			vm := newVM(t, im)
			_, err := vm.Run(guestvm.RunLimits{InsnCount: limit})
			sameErr(t, what, err, stepUntil(ref, limit))
			sameState(t, what, vm, ref)
			_, err = vm.Run(guestvm.RunLimits{})
			sameErr(t, what+", resumed", err, wantErr)
			if vm.InsnCount != total || (wantErr == nil) != vm.Halted {
				t.Errorf("%s, resumed: %d instructions, halted=%v", what, vm.InsnCount, vm.Halted)
			}
			if t.Failed() {
				t.FailNow()
			}
		}

		vm, ref = newVM(t, im), newVM(t, im)
		for pauses := 0; ; pauses++ {
			what := fmt.Sprintf("%s, StopAtSys pause %d", prog.name, pauses)
			reason, err := vm.Run(guestvm.RunLimits{StopAtSys: true})
			if reason != guestvm.StopSyscall {
				sameErr(t, what, err, wantErr)
				stepUntil(ref, 0)
				sameState(t, what, vm, ref)
				break
			}
			if in, err := vm.Fetch(vm.CPU.EIP); err != nil || in.Op != guest.SYSCALL {
				t.Fatalf("%s: not at a syscall (%v)", what, err)
			}
			stepUntil(ref, vm.InsnCount)
			sameState(t, what, vm, ref)
			if err := vm.ServiceSyscallAt(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
