package guestvm_test

import (
	"maps"
	"math"
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
	for !ref.Halted && (insns == 0 || ref.InsnCount < insns) {
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
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
		if err != nil || in.Op != guest.SYSCALL {
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
