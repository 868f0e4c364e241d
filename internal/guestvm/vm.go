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

	decode  DecodeCache
	bbStart uint32
	inBB    bool

	// bbcache holds decoded basic blocks, decoded when Run first arrives
	// at their entry. Run executes each in one guest.RunBlock call and
	// follows successor links; the map is consulted only where no link
	// matches. Self-modifying code is out of scope (see Fetch): entries
	// are never invalidated, links never dangle. scratch is decodeBB's.
	bbcache map[uint32]*cachedBB
	scratch []guest.Inst
}

// cachedBB is one decoded basic block, terminator included.
type cachedBB struct {
	pc    uint32 // entry
	insts []guest.Inst

	// succ are the two blocks last seen to follow this one, most recent
	// first: both ways of a conditional branch stay linked. A link is
	// taken only when its pc is where control went; an indirect branch
	// with more targets goes back to the map.
	succ [2]*cachedBB
}

// maxBBInsns bounds a cached basic block; longer blocks execute through
// Step every time.
const maxBBInsns = 4096

// New creates a VM, loads the image, and prepares the stack.
func New(im *guest.Image) (*VM, error) {
	vm := &VM{Mem: NewMemory(false), Env: NewEnv(), bbcache: make(map[uint32]*cachedBB)}
	if err := vm.Mem.LoadImage(im); err != nil {
		return nil, err
	}
	vm.CPU.EIP = im.Entry
	vm.CPU.R[guest.ESP] = StackTop
	return vm, nil
}

// Fetch decodes the instruction at pc, through a decode cache.
// Self-modifying code is out of scope for the reproduction (the paper's
// workloads do not exercise it either).
func (vm *VM) Fetch(pc uint32) (guest.Inst, error) {
	if in, ok := vm.decode.Lookup(pc); ok {
		return in, nil
	}
	var raw [10]byte
	for i := range raw {
		v, err := vm.Mem.Load8(pc + uint32(i))
		if err != nil {
			break
		}
		raw[i] = v
	}
	in, n := guest.Decode(raw[:])
	if n == 0 {
		return in, fmt.Errorf("guestvm: undecodable instruction at %#x", pc)
	}
	vm.decode.Insert(pc, in)
	return in, nil
}

// Step executes exactly one instruction, servicing syscalls inline.
func (vm *VM) Step() (guest.Event, error) {
	pc := vm.CPU.EIP
	in := vm.decode.LookupPtr(pc)
	if in == nil {
		if _, err := vm.Fetch(pc); err != nil {
			return guest.EvNone, err
		}
		in = vm.decode.LookupPtr(pc)
	}
	if !vm.inBB {
		vm.inBB, vm.bbStart = true, pc
	}
	ev, err := guest.Step(&vm.CPU, vm.Mem, in)
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

// block returns the cached block entered at the current EIP (a block
// boundary), or nil for a block that cannot be cached. prev is the
// cached block that ran last, if control has stayed in cached blocks:
// its links are tried before the map, and filled on a miss.
func (vm *VM) block(prev *cachedBB) *cachedBB {
	pc := vm.CPU.EIP
	if prev != nil {
		if bb := prev.succ[0]; bb != nil && bb.pc == pc {
			return bb
		}
		if bb := prev.succ[1]; bb != nil && bb.pc == pc {
			return bb
		}
	}
	bb := vm.bbcache[pc]
	if bb == nil {
		if bb = vm.decodeBB(pc); bb == nil {
			return nil
		}
		vm.bbcache[pc] = bb
	}
	if prev != nil {
		prev.succ[1], prev.succ[0] = prev.succ[0], bb
	}
	return bb
}

// decodeBB decodes the basic block at pc. A block with an undecodable
// instruction or more than maxBBInsns is left to Step, which stops at
// the right instruction.
func (vm *VM) decodeBB(pc uint32) *cachedBB {
	vm.scratch = vm.scratch[:0]
	for at := pc; len(vm.scratch) < maxBBInsns; {
		in, err := vm.Fetch(at)
		if err != nil {
			break
		}
		vm.scratch = append(vm.scratch, in)
		if in.Op.EndsBasicBlock() {
			return &cachedBB{pc: pc, insts: append([]guest.Inst(nil), vm.scratch...)}
		}
		at += uint32(in.Size)
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
func (vm *VM) Run(lim RunLimits) (StopReason, error) {
	var prev *cachedBB
	for !vm.Halted {
		if lim.BBCount > 0 && vm.BBCount >= lim.BBCount {
			return StopBBLimit, nil
		}
		if lim.InsnCount > 0 && vm.InsnCount >= lim.InsnCount {
			return StopInsnLimit, nil
		}
		// At a block boundary with the instruction limit out of reach,
		// the whole block runs at once. A SYSCALL can only terminate a
		// block, so StopAtSys runs the body and pauses before it.
		var bb *cachedBB
		if !vm.inBB {
			bb = vm.block(prev)
		}
		if bb != nil && (lim.InsnCount == 0 || vm.InsnCount+uint64(len(bb.insts)) <= lim.InsnCount) {
			insts := bb.insts
			pause := lim.StopAtSys && insts[len(insts)-1].Op == guest.SYSCALL
			if pause {
				insts = insts[:len(insts)-1]
			}
			vm.inBB, vm.bbStart = true, bb.pc
			n, ev, err := guest.RunBlock(&vm.CPU, vm.Mem, insts)
			vm.InsnCount += uint64(n)
			if err == nil && !pause {
				err = vm.endBB(ev)
			}
			if err != nil {
				return StopError, err
			}
			if pause {
				return StopSyscall, nil
			}
			prev = bb
			continue
		}
		prev = nil
		if lim.StopAtSys {
			in, err := vm.Fetch(vm.CPU.EIP)
			if err != nil {
				return StopError, err
			}
			if in.Op == guest.SYSCALL {
				return StopSyscall, nil
			}
		}
		if _, err := vm.Step(); err != nil {
			return StopError, err
		}
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
