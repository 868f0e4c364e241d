package guestvm

import (
	"fmt"

	"darco/internal/guest"
)

// StackTop is where the guest stack begins (grows down).
const StackTop = 0x7FF0_0000

// StopReason tells a caller why VM.Run returned.
type StopReason uint8

// Stop reasons.
const (
	StopHalt    StopReason = iota // program executed HALT or SysExit
	StopSyscall                   // paused before servicing a syscall
	StopBBLimit                   // reached the requested basic-block count
	StopInsnLimit
	StopError
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopSyscall:
		return "syscall"
	case StopBBLimit:
		return "bb-limit"
	case StopInsnLimit:
		return "insn-limit"
	}
	return "error"
}

// VM is the authoritative guest functional emulator. It executes the
// unmodified guest binary and owns the authoritative architectural and
// memory state the controller validates the co-designed component
// against.
type VM struct {
	CPU guest.CPU
	Mem *Memory
	Env *Env

	Halted bool

	// Statistics.
	InsnCount uint64 // dynamic guest instructions retired
	BBCount   uint64 // dynamic basic blocks retired

	// BBFreq, when non-nil, accumulates per-basic-block execution
	// frequencies (keyed by BB entry PC). The warm-up methodology uses
	// it as the authoritative execution distribution.
	BBFreq map[uint32]uint64

	// decode is the VM's front end. Run executes each decoded block in
	// one guest.RunBlock call and follows the blocks' links. A store to
	// a page it decoded from fails (see DecodeCache), so its blocks
	// never go stale. Its table is the one the controller shares with
	// the TOL (see Code).
	decode  DecodeCache
	bbStart uint32
	inBB    bool
}

// New creates a VM, loads the image, and prepares the stack.
func New(im *guest.Image) (*VM, error) {
	vm := &VM{Mem: NewMemory(false), Env: NewEnv()}
	if err := vm.Mem.LoadImage(im); err != nil {
		return nil, err
	}
	vm.CPU.EIP = im.Entry
	vm.CPU.R[guest.ESP] = StackTop
	return vm, nil
}

// Code returns the table of decoded blocks the VM's front end reads
// through, for another emulator of the same program to share (see
// DecodeCache.Share).
func (vm *VM) Code() *CodeTable { return vm.decode.Table() }

// Decoded returns the block the VM decoded at pc, or nil when it has
// decoded none there (see DecodeCache.Cached).
func (vm *VM) Decoded(pc uint32) *Block { return vm.decode.Cached(pc) }

// Fetch decodes the instruction at pc from memory. The memory is not
// strict, so every error is an undecodable instruction.
func (vm *VM) Fetch(pc uint32) (guest.Inst, error) {
	in, err := Fetch(vm.Mem, pc)
	if err != nil {
		return in, fmt.Errorf("guestvm: %w", err)
	}
	return in, nil
}

// Step executes exactly one instruction, servicing syscalls inline.
func (vm *VM) Step() (guest.Event, error) {
	pc := vm.CPU.EIP
	in, err := vm.Fetch(pc)
	if err != nil {
		return guest.EvNone, err
	}
	if !vm.inBB {
		vm.inBB, vm.bbStart = true, pc
	}
	ev, err := guest.Step(&vm.CPU, vm.Mem, &in)
	if err != nil {
		return ev, err
	}
	vm.InsnCount++
	if in.Op.EndsBasicBlock() {
		err = vm.endBB(ev)
	}
	return ev, err
}

// endBB is the bookkeeping of a retired terminator: the block that began
// at bbStart is complete, and the event only a terminator can raise is
// serviced.
func (vm *VM) endBB(ev guest.Event) error {
	vm.BBCount++
	vm.inBB = false
	if vm.BBFreq != nil {
		vm.BBFreq[vm.bbStart]++
	}
	switch ev {
	case guest.EvHalt:
		vm.Halted = true
	case guest.EvSyscall:
		if err := vm.Env.Service(&vm.CPU, vm.Mem); err != nil {
			return err
		}
		if vm.Env.Exited {
			vm.Halted = true
		}
	}
	return nil
}

// RunLimits bounds a Run call. Zero fields mean unlimited.
type RunLimits struct {
	BBCount   uint64 // stop when vm.BBCount reaches this value
	InsnCount uint64 // stop when vm.InsnCount reaches this value
	StopAtSys bool   // pause *before* servicing the next syscall
}

// Run executes until a limit is reached or the program halts. With
// StopAtSys, the VM pauses with EIP at the SYSCALL instruction so the
// controller can orchestrate the synchronization phase.
//
// Whatever the EIP — a block entry, the middle of a block a limit
// stopped in, the rest of a block longer than MaxBlockInsns — Run takes
// the block the decoder returns there, cuts it to the instruction limit
// and, under StopAtSys, just before a trailing SYSCALL, and runs what
// is left in one guest.RunBlock call. A block an undecodable
// instruction ended early runs up to it; the error is returned when
// the next block would begin there.
func (vm *VM) Run(lim RunLimits) (StopReason, error) {
	var prev *Block
	for !vm.Halted {
		if lim.BBCount > 0 && vm.BBCount >= lim.BBCount {
			return StopBBLimit, nil
		}
		if lim.InsnCount > 0 && vm.InsnCount >= lim.InsnCount {
			return StopInsnLimit, nil
		}
		bb := prev.Next(vm.CPU.EIP)
		if bb == nil {
			var err error
			if bb, _, err = vm.decode.Decode(vm.Mem, prev, vm.CPU.EIP); len(bb.Insts) == 0 {
				return StopError, fmt.Errorf("guestvm: %w", err)
			}
		}
		insts := bb.Insts
		if left := lim.InsnCount - vm.InsnCount; lim.InsnCount > 0 && uint64(len(insts)) > left {
			insts = insts[:left]
		}
		pause := lim.StopAtSys && insts[len(insts)-1].Op == guest.SYSCALL
		if pause {
			insts = insts[:len(insts)-1]
		}
		if !vm.inBB {
			vm.inBB, vm.bbStart = true, bb.PC
		}
		n, ev, err := guest.RunBlock(&vm.CPU, vm.Mem, insts)
		vm.InsnCount += uint64(n)
		if err == nil && len(insts) == len(bb.Insts) && bb.Term() != nil {
			err = vm.endBB(ev)
		}
		if err != nil {
			return StopError, err
		}
		if pause {
			return StopSyscall, nil
		}
		prev = bb
	}
	return StopHalt, nil
}

// ServiceSyscallAt executes the SYSCALL instruction the VM is paused at
// and services it. The controller calls this during synchronization.
func (vm *VM) ServiceSyscallAt() error {
	in, err := vm.Fetch(vm.CPU.EIP)
	if err != nil {
		return err
	}
	if in.Op != guest.SYSCALL {
		return fmt.Errorf("guestvm: not at a syscall (eip=%#x, op=%v)", vm.CPU.EIP, in.Op)
	}
	_, err = vm.Step()
	return err
}
