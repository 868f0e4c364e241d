package guestvm

import (
	"testing"

	"darco/internal/guest"
)

func TestMemoryBasics(t *testing.T) {
	m := NewMemory(false)
	if err := m.Store32(0x1000, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load32(0x1000)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("load32 %#x %v", v, err)
	}
	b, _ := m.Load8(0x1001)
	if b != 0xBE {
		t.Errorf("little endian byte %#x", b)
	}
	if m.PageCount() != 1 {
		t.Errorf("pages %d", m.PageCount())
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory(false)
	addr := uint32(PageSize - 2) // straddles pages 0 and 1
	if err := m.Store32(addr, 0x11223344); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load32(addr)
	if err != nil || v != 0x11223344 {
		t.Fatalf("straddle load %#x %v", v, err)
	}
	if m.PageCount() != 2 {
		t.Errorf("straddle should touch 2 pages, got %d", m.PageCount())
	}
	if err := m.Store64(2*PageSize-4, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	w, err := m.Load64(2*PageSize - 4)
	if err != nil || w != 0x1122334455667788 {
		t.Fatalf("straddle load64 %#x %v", w, err)
	}
}

func TestStrictMemoryFaults(t *testing.T) {
	m := NewMemory(true)
	_, err := m.Load32(0x5000)
	pf, ok := err.(*PageFaultError)
	if !ok {
		t.Fatalf("want page fault, got %v", err)
	}
	if pf.Addr != 0x5000 {
		t.Errorf("fault addr %#x", pf.Addr)
	}
	// Install the page; access now works.
	var page [PageSize]byte
	page[0] = 0xAB
	m.InstallPage(0x5000, &page)
	b, err := m.Load8(0x5000)
	if err != nil || b != 0xAB {
		t.Fatalf("after install: %#x %v", b, err)
	}
	// A store to an unmapped page also faults.
	if err := m.Store8(0x9000, 1); err == nil {
		t.Errorf("store to unmapped page must fault")
	}
}

func TestMemoryEqualAndClone(t *testing.T) {
	a := NewMemory(false)
	b := NewMemory(false)
	a.Store32(0x100, 7)
	b.Store32(0x100, 7)
	if ok, _ := a.Equal(b); !ok {
		t.Errorf("equal memories reported different")
	}
	b.Store8(0x101, 9)
	ok, addr := a.Equal(b)
	if ok || addr != 0x101 {
		t.Errorf("difference at %#x ok=%v", addr, ok)
	}
	// A mapped all-zero page equals an unmapped one.
	c := NewMemory(false)
	c.Load8(0x2000) // allocates zero page
	d := NewMemory(false)
	if ok, _ := c.Equal(d); !ok {
		t.Errorf("zero page should equal unmapped")
	}
	// Clone is deep.
	cl := a.Clone()
	cl.Store8(0x100, 99)
	v, _ := a.Load8(0x100)
	if v == 99 {
		t.Errorf("clone aliases original")
	}
}

func mustVM(t *testing.T, src string) *VM {
	t.Helper()
	im, err := guest.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := New(im)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestVMRunToHalt(t *testing.T) {
	vm := mustVM(t, `
.org 0x1000
    movri eax, 10
    movri ebx, 0
loop:
    addrr ebx, eax
    dec eax
    cmpri eax, 0
    jg loop
    halt
`)
	reason, err := vm.Run(RunLimits{})
	if err != nil || reason != StopHalt {
		t.Fatalf("run: %v %v", reason, err)
	}
	if vm.CPU.R[guest.EBX] != 55 {
		t.Errorf("sum %d", vm.CPU.R[guest.EBX])
	}
	if vm.InsnCount == 0 || vm.BBCount == 0 {
		t.Errorf("counters: %d insns %d bbs", vm.InsnCount, vm.BBCount)
	}
}

func TestVMSyscalls(t *testing.T) {
	vm := mustVM(t, `
.org 0x1000
    movri eax, 20       ; getpid
    syscall
    movrr esi, eax
    movri eax, 13       ; time
    syscall
    movri eax, 13
    syscall
    movrr edi, eax      ; second tick
    movri eax, 45       ; brk query
    movri ebx, 0
    syscall
    movrr ebp, eax
    movri eax, 4        ; write
    movri ebx, 1
    movri ecx, 0x1000
    movri edx, 3
    syscall
    movri eax, 1        ; exit(7)
    movri ebx, 7
    syscall
    halt
`)
	reason, err := vm.Run(RunLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if reason != StopHalt {
		t.Fatalf("reason %v", reason)
	}
	if vm.CPU.R[guest.ESI] != FixedPID {
		t.Errorf("pid %d", vm.CPU.R[guest.ESI])
	}
	if vm.CPU.R[guest.EDI] != 2 {
		t.Errorf("tick %d", vm.CPU.R[guest.EDI])
	}
	if vm.CPU.R[guest.EBP] != InitialBrk {
		t.Errorf("brk %#x", vm.CPU.R[guest.EBP])
	}
	if len(vm.Env.Output) != 3 {
		t.Errorf("output %d bytes", len(vm.Env.Output))
	}
	if !vm.Env.Exited || vm.Env.ExitCode != 7 {
		t.Errorf("exit %v %d", vm.Env.Exited, vm.Env.ExitCode)
	}
}

func TestVMRunLimits(t *testing.T) {
	src := `
.org 0x1000
loop:
    addri eax, 1
    cmpri eax, 1000000
    jl loop
    halt
`
	vm := mustVM(t, src)
	reason, err := vm.Run(RunLimits{InsnCount: 100})
	if err != nil || reason != StopInsnLimit {
		t.Fatalf("insn limit: %v %v", reason, err)
	}
	if vm.InsnCount < 100 || vm.InsnCount > 103 {
		t.Errorf("insn count %d", vm.InsnCount)
	}
	vm2 := mustVM(t, src)
	reason, err = vm2.Run(RunLimits{BBCount: 5})
	if err != nil || reason != StopBBLimit {
		t.Fatalf("bb limit: %v %v", reason, err)
	}
	if vm2.BBCount != 5 {
		t.Errorf("bb count %d", vm2.BBCount)
	}
}

func TestVMStopAtSyscall(t *testing.T) {
	vm := mustVM(t, `
.org 0x1000
    movri eax, 20
    syscall
    halt
`)
	reason, err := vm.Run(RunLimits{StopAtSys: true})
	if err != nil || reason != StopSyscall {
		t.Fatalf("stop-at-sys: %v %v", reason, err)
	}
	in, err := vm.Fetch(vm.CPU.EIP)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != guest.SYSCALL {
		t.Fatalf("paused at %v", in.Op)
	}
	if err := vm.ServiceSyscallAt(); err != nil {
		t.Fatal(err)
	}
	if vm.CPU.R[guest.EAX] != FixedPID {
		t.Errorf("pid %d", vm.CPU.R[guest.EAX])
	}
}

func TestVMBBFreq(t *testing.T) {
	vm := mustVM(t, `
.org 0x1000
    movri eax, 3
loop:
    dec eax
    cmpri eax, 0
    jg loop
    halt
`)
	vm.BBFreq = make(map[uint32]uint64)
	if _, err := vm.Run(RunLimits{}); err != nil {
		t.Fatal(err)
	}
	// The first iteration belongs to the entry basic block (no label
	// breaks it); the loop BB proper runs on iterations 2 and 3.
	loopPC := uint32(0x1000 + 6)
	if vm.BBFreq[loopPC] != 2 {
		t.Errorf("loop bb freq %d (map %v)", vm.BBFreq[loopPC], vm.BBFreq)
	}
	if vm.BBFreq[0x1000] != 1 {
		t.Errorf("entry bb freq %d", vm.BBFreq[0x1000])
	}
}

func TestUnknownSyscallErrors(t *testing.T) {
	vm := mustVM(t, `
.org 0x1000
    movri eax, 999
    syscall
    halt
`)
	if _, err := vm.Run(RunLimits{}); err == nil {
		t.Fatalf("unknown syscall must error")
	}
}

func TestEnvWriteBounds(t *testing.T) {
	env := NewEnv()
	cpu := &guest.CPU{}
	cpu.R[guest.EAX] = SysWrite
	cpu.R[guest.EDX] = 1 << 21 // over the write limit
	if err := env.Service(cpu, NewMemory(false)); err == nil {
		t.Errorf("oversized write must error")
	}
}
