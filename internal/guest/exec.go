package guest

import (
	"fmt"
	"math"
	"math/bits"
)

// CPU holds the guest architectural register state.
type CPU struct {
	R     [NumGPR]uint32
	F     [NumFPR]float64
	EIP   uint32
	Flags uint32
}

// Memory abstracts guest data memory. The authoritative emulator and the
// co-designed component's emulated memory both implement it; the
// co-designed side additionally returns page-fault errors on first touch
// so the controller can transfer pages.
type Memory interface {
	Load8(addr uint32) (uint8, error)
	Store8(addr uint32, v uint8) error
	Load32(addr uint32) (uint32, error)
	Store32(addr uint32, v uint32) error
	Load64(addr uint32) (uint64, error)
	Store64(addr uint32, v uint64) error
}

// Event classifies what an instruction produced beyond plain register
// updates.
type Event uint8

// Events.
const (
	EvNone    Event = iota // fall through or branch handled internally
	EvHalt                 // HALT retired; program complete
	EvSyscall              // SYSCALL retired; environment must service it
)

// RunBlock executes insts in order from cpu.EIP until the slice is
// exhausted, an instruction transfers control or raises an event (both
// retire and end the run), or one faults. It returns how many
// instructions retired. insts must be the instructions encoded
// consecutively at cpu.EIP: one that does not transfer control advances
// EIP by its size. This is the single definition of the authoritative
// GISA semantics: the x86 component and TOL's interpreter replay decoded
// basic blocks through it, and translated code is tested against it.
//
// Precise faults: at an error, cpu is exactly as before the faulting
// instruction, with EIP at it, and so is mem (but for the leading bytes
// of a store that straddles into a missing page, which re-execution
// writes again): the caller installs the page and re-executes. A string
// instruction keeps the progress it made — ESI/EDI/ECX describe the
// bytes still to do — so it restarts the same way even when source and
// destination overlap.
func RunBlock(cpu *CPU, mem Memory, insts []Inst) (retired int, ev Event, err error) {
	// As little as possible lives across the switch (the compiler spills
	// all of it per instruction): the index, and EIP already advanced
	// past the instruction being executed, written back on every exit.
	eip := cpu.EIP
	for ; retired < len(insts); retired++ {
		in := &insts[retired]
		eip += in.size()
		switch in.Op {
		case NOP:
		case HALT:
			ev = EvHalt
			goto taken
		case SYSCALL:
			ev = EvSyscall
			goto taken

		case MOVri:
			cpu.R[in.R1] = uint32(in.Imm)
		case MOVrr:
			cpu.R[in.R1] = cpu.R[in.R2]
		case LOAD:
			var v uint32
			if v, err = mem.Load32(cpu.R[in.R2] + uint32(in.Imm)); err != nil {
				goto fault
			}
			cpu.R[in.R1] = v
		case STORE:
			if err = mem.Store32(cpu.R[in.R2]+uint32(in.Imm), cpu.R[in.R1]); err != nil {
				goto fault
			}
		case LOADB:
			var v uint8
			if v, err = mem.Load8(cpu.R[in.R2] + uint32(in.Imm)); err != nil {
				goto fault
			}
			cpu.R[in.R1] = uint32(v)
		case STOREB:
			if err = mem.Store8(cpu.R[in.R2]+uint32(in.Imm), uint8(cpu.R[in.R1])); err != nil {
				goto fault
			}
		case LOADX:
			var v uint32
			if v, err = mem.Load32(cpu.R[in.R2] + cpu.R[in.R3]<<in.Scale + uint32(in.Imm)); err != nil {
				goto fault
			}
			cpu.R[in.R1] = v
		case STOREX:
			if err = mem.Store32(cpu.R[in.R2]+cpu.R[in.R3]<<in.Scale+uint32(in.Imm), cpu.R[in.R1]); err != nil {
				goto fault
			}
		case LEA:
			cpu.R[in.R1] = cpu.R[in.R2] + cpu.R[in.R3]<<in.Scale + uint32(in.Imm)

		case ADDrr:
			cpu.R[in.R1] = addFlags(cpu, cpu.R[in.R1], cpu.R[in.R2], 0)
		case ADDri:
			cpu.R[in.R1] = addFlags(cpu, cpu.R[in.R1], uint32(in.Imm), 0)
		case ADCrr:
			cpu.R[in.R1] = addFlags(cpu, cpu.R[in.R1], cpu.R[in.R2], cpu.Flags&FlagCF)
		case SUBrr:
			cpu.R[in.R1] = subFlags(cpu, cpu.R[in.R1], cpu.R[in.R2], 0)
		case SUBri:
			cpu.R[in.R1] = subFlags(cpu, cpu.R[in.R1], uint32(in.Imm), 0)
		case SBBrr:
			cpu.R[in.R1] = subFlags(cpu, cpu.R[in.R1], cpu.R[in.R2], cpu.Flags&FlagCF)
		case ANDrr:
			cpu.R[in.R1] = logicFlags(cpu, cpu.R[in.R1]&cpu.R[in.R2])
		case ANDri:
			cpu.R[in.R1] = logicFlags(cpu, cpu.R[in.R1]&uint32(in.Imm))
		case ORrr:
			cpu.R[in.R1] = logicFlags(cpu, cpu.R[in.R1]|cpu.R[in.R2])
		case ORri:
			cpu.R[in.R1] = logicFlags(cpu, cpu.R[in.R1]|uint32(in.Imm))
		case XORrr:
			cpu.R[in.R1] = logicFlags(cpu, cpu.R[in.R1]^cpu.R[in.R2])
		case XORri:
			cpu.R[in.R1] = logicFlags(cpu, cpu.R[in.R1]^uint32(in.Imm))
		case CMPrr:
			subFlags(cpu, cpu.R[in.R1], cpu.R[in.R2], 0)
		case CMPri:
			subFlags(cpu, cpu.R[in.R1], uint32(in.Imm), 0)
		case TESTrr:
			logicFlags(cpu, cpu.R[in.R1]&cpu.R[in.R2])
		case SHLri:
			cpu.R[in.R1] = shlFlags(cpu, cpu.R[in.R1], uint32(in.Imm)&31)
		case SHRri:
			cpu.R[in.R1] = shrFlags(cpu, cpu.R[in.R1], uint32(in.Imm)&31)
		case SARri:
			cpu.R[in.R1] = sarFlags(cpu, cpu.R[in.R1], uint32(in.Imm)&31)
		case SHLrr:
			cpu.R[in.R1] = shlFlags(cpu, cpu.R[in.R1], cpu.R[in.R2]&31)
		case SHRrr:
			cpu.R[in.R1] = shrFlags(cpu, cpu.R[in.R1], cpu.R[in.R2]&31)
		case IMULrr:
			cpu.R[in.R1] = mulFlags(cpu, cpu.R[in.R1], cpu.R[in.R2])
		case IMULri:
			cpu.R[in.R1] = mulFlags(cpu, cpu.R[in.R1], uint32(in.Imm))
		case IDIV:
			// Deterministic division: divide-by-zero yields all-ones
			// quotient and the dividend as remainder instead of faulting,
			// so differential tests never need to special-case traps.
			den := int32(cpu.R[in.R1])
			num := int32(cpu.R[EAX])
			if den == 0 {
				cpu.R[EDX] = cpu.R[EAX]
				cpu.R[EAX] = 0xFFFFFFFF
			} else if num == math.MinInt32 && den == -1 {
				cpu.R[EAX] = 0x80000000
				cpu.R[EDX] = 0
			} else {
				cpu.R[EAX] = uint32(num / den)
				cpu.R[EDX] = uint32(num % den)
			}
		case INC:
			v := cpu.R[in.R1] + 1
			setIncFlags(cpu, v, cpu.R[in.R1] == 0x7FFFFFFF)
			cpu.R[in.R1] = v
		case DEC:
			v := cpu.R[in.R1] - 1
			setIncFlags(cpu, v, cpu.R[in.R1] == 0x80000000)
			cpu.R[in.R1] = v
		case NEG:
			cpu.R[in.R1] = subFlags(cpu, 0, cpu.R[in.R1], 0)
		case NOT:
			cpu.R[in.R1] = ^cpu.R[in.R1]

		case PUSH:
			if err = mem.Store32(cpu.R[ESP]-4, cpu.R[in.R1]); err != nil {
				goto fault
			}
			cpu.R[ESP] -= 4
		case PUSHI:
			if err = mem.Store32(cpu.R[ESP]-4, uint32(in.Imm)); err != nil {
				goto fault
			}
			cpu.R[ESP] -= 4
		case POP:
			var v uint32
			if v, err = mem.Load32(cpu.R[ESP]); err != nil {
				goto fault
			}
			cpu.R[ESP] += 4
			cpu.R[in.R1] = v

		case JMP:
			eip += uint32(in.Imm)
			goto taken
		case JE, JNE, JL, JLE, JG, JGE, JB, JAE:
			if CondTaken(in.Op, cpu.Flags) {
				eip += uint32(in.Imm)
			}
			goto taken
		case JMPr:
			eip = cpu.R[in.R1]
			goto taken
		case CALL, CALLr:
			if err = mem.Store32(cpu.R[ESP]-4, eip); err != nil {
				goto fault
			}
			cpu.R[ESP] -= 4
			if in.Op == CALL {
				eip += uint32(in.Imm)
			} else {
				eip = cpu.R[in.R1]
			}
			goto taken
		case RET:
			var v uint32
			if v, err = mem.Load32(cpu.R[ESP]); err != nil {
				goto fault
			}
			cpu.R[ESP] += 4
			eip = v
			goto taken

		case FLD:
			var v uint64
			if v, err = mem.Load64(cpu.R[in.R2] + uint32(in.Imm)); err != nil {
				goto fault
			}
			cpu.F[in.R1] = math.Float64frombits(v)
		case FST:
			if err = mem.Store64(cpu.R[in.R2]+uint32(in.Imm), math.Float64bits(cpu.F[in.R1])); err != nil {
				goto fault
			}
		case FLDI:
			cpu.F[in.R1] = in.F64
		case FMOV:
			cpu.F[in.R1] = cpu.F[in.R2]
		case FADD:
			cpu.F[in.R1] += cpu.F[in.R2]
		case FSUB:
			cpu.F[in.R1] -= cpu.F[in.R2]
		case FMUL:
			cpu.F[in.R1] *= cpu.F[in.R2]
		case FDIV:
			cpu.F[in.R1] /= cpu.F[in.R2]
		case FSIN:
			cpu.F[in.R1] = SoftSin(cpu.F[in.R2])
		case FCOS:
			cpu.F[in.R1] = SoftCos(cpu.F[in.R2])
		case FSQRT:
			cpu.F[in.R1] = SoftSqrt(cpu.F[in.R2])
		case FABS:
			cpu.F[in.R1] = math.Abs(cpu.F[in.R2])
		case FNEG:
			cpu.F[in.R1] = -cpu.F[in.R2]
		case FCMP:
			a, b := cpu.F[in.R1], cpu.F[in.R2]
			f := uint32(0)
			switch {
			case math.IsNaN(a) || math.IsNaN(b):
				f = FlagZF | FlagCF | FlagPF // unordered, x86 FCOMI style
			case a == b:
				f = FlagZF
			case a < b:
				f = FlagCF
			}
			cpu.Flags = f
		case CVTIF:
			cpu.F[in.R1] = float64(int32(cpu.R[in.R2]))
		case CVTFI:
			cpu.R[in.R1] = uint32(truncF64(cpu.F[in.R2]))

		case MOVS:
			for cpu.R[ECX] > 0 {
				var b uint8
				if b, err = mem.Load8(cpu.R[ESI]); err != nil {
					goto fault
				}
				if err = mem.Store8(cpu.R[EDI], b); err != nil {
					goto fault
				}
				cpu.R[ESI]++
				cpu.R[EDI]++
				cpu.R[ECX]--
			}
		case STOS:
			for cpu.R[ECX] > 0 {
				if err = mem.Store8(cpu.R[EDI], uint8(cpu.R[EAX])); err != nil {
					goto fault
				}
				cpu.R[EDI]++
				cpu.R[ECX]--
			}

		default:
			err = fmt.Errorf("guest: illegal instruction %v at %#x", in.Op, eip-in.size())
			goto fault
		}
	}
	cpu.EIP = eip
	return retired, EvNone, nil
taken:
	cpu.EIP = eip
	return retired + 1, ev, nil
fault:
	cpu.EIP = eip - insts[retired].size()
	return retired, EvNone, err
}

// size is the encoded length. Decoded instructions carry it; recomputing
// it through the form tables costs two table walks per executed
// instruction. Hand-built Inst values (Size zero) still work.
func (in *Inst) size() uint32 {
	if in.Size != 0 {
		return uint32(in.Size)
	}
	return uint32(in.Len())
}

// Step executes one instruction on cpu against mem and advances EIP: the
// one-instruction case of RunBlock.
func Step(cpu *CPU, mem Memory, in *Inst) (Event, error) {
	one := [1]Inst{*in}
	_, ev, err := RunBlock(cpu, mem, one[:])
	return ev, err
}

// CondTaken evaluates a conditional branch opcode against a flag word.
func CondTaken(op Op, flags uint32) bool {
	zf := flags&FlagZF != 0
	cf := flags&FlagCF != 0
	sf := flags&FlagSF != 0
	of := flags&FlagOF != 0
	switch op {
	case JE:
		return zf
	case JNE:
		return !zf
	case JL:
		return sf != of
	case JLE:
		return zf || sf != of
	case JG:
		return !zf && sf == of
	case JGE:
		return sf == of
	case JB:
		return cf
	case JAE:
		return !cf
	}
	return false
}

// truncF64 converts a float64 to int32 with x86 CVTTSD2SI-like saturation
// semantics made deterministic: NaN and out-of-range map to MinInt32.
func truncF64(f float64) int32 {
	if math.IsNaN(f) || f >= float64(math.MaxInt32)+1 || f < float64(math.MinInt32) {
		return math.MinInt32
	}
	return int32(f)
}

func parity(v uint32) uint32 {
	if bits.OnesCount8(uint8(v))%2 == 0 {
		return FlagPF
	}
	return 0
}

func szpFlags(v uint32) uint32 {
	f := parity(v)
	if v == 0 {
		f |= FlagZF
	}
	if int32(v) < 0 {
		f |= FlagSF
	}
	return f
}

func addFlags(cpu *CPU, a, b, cin uint32) uint32 {
	r64 := uint64(a) + uint64(b) + uint64(cin)
	r := uint32(r64)
	f := szpFlags(r)
	if r64 > math.MaxUint32 {
		f |= FlagCF
	}
	// Signed overflow: operands same sign, result differs.
	if (a^r)&(b^r)&0x80000000 != 0 {
		f |= FlagOF
	}
	cpu.Flags = f
	return r
}

func subFlags(cpu *CPU, a, b, bin uint32) uint32 {
	r64 := uint64(a) - uint64(b) - uint64(bin)
	r := uint32(r64)
	f := szpFlags(r)
	if uint64(a) < uint64(b)+uint64(bin) {
		f |= FlagCF
	}
	if (a^b)&(a^r)&0x80000000 != 0 {
		f |= FlagOF
	}
	cpu.Flags = f
	return r
}

func logicFlags(cpu *CPU, r uint32) uint32 {
	cpu.Flags = szpFlags(r) // CF and OF cleared
	return r
}

func shlFlags(cpu *CPU, a, n uint32) uint32 {
	if n == 0 {
		cpu.Flags = szpFlags(a)
		return a
	}
	r := a << n
	f := szpFlags(r)
	if a&(1<<(32-n)) != 0 {
		f |= FlagCF
	}
	if (a>>31)&1 != (r>>31)&1 {
		f |= FlagOF
	}
	cpu.Flags = f
	return r
}

func shrFlags(cpu *CPU, a, n uint32) uint32 {
	if n == 0 {
		cpu.Flags = szpFlags(a)
		return a
	}
	r := a >> n
	f := szpFlags(r)
	if a&(1<<(n-1)) != 0 {
		f |= FlagCF
	}
	if a&0x80000000 != 0 {
		f |= FlagOF
	}
	cpu.Flags = f
	return r
}

func sarFlags(cpu *CPU, a, n uint32) uint32 {
	if n == 0 {
		cpu.Flags = szpFlags(a)
		return a
	}
	r := uint32(int32(a) >> n)
	f := szpFlags(r)
	if a&(1<<(n-1)) != 0 {
		f |= FlagCF
	}
	cpu.Flags = f
	return r
}

func mulFlags(cpu *CPU, a, b uint32) uint32 {
	full := int64(int32(a)) * int64(int32(b))
	r := uint32(full)
	f := szpFlags(r)
	if full != int64(int32(r)) {
		f |= FlagCF | FlagOF
	}
	cpu.Flags = f
	return r
}

func setIncFlags(cpu *CPU, r uint32, overflow bool) {
	f := cpu.Flags & FlagCF // CF preserved by INC/DEC
	f |= szpFlags(r)
	if overflow {
		f |= FlagOF
	}
	cpu.Flags = f
}
