package guest

import (
	"fmt"
	"math"
)

// stepOracle is the one-instruction-at-a-time interpreter RunBlock
// replaced, kept verbatim as the reference the differential tests in
// runblock_test.go drive RunBlock against (it shares only the flag
// helpers with exec.go).
func stepOracle(cpu *CPU, mem Memory, in *Inst) (Event, error) {
	// Decoded instructions carry their encoded size; recomputing it
	// through the form tables costs two table walks per executed
	// instruction. Hand-built Inst values (Size zero) still work.
	size := uint32(in.Size)
	if size == 0 {
		size = uint32(in.Len())
	}
	next := cpu.EIP + size
	switch in.Op {
	case NOP:
	case HALT:
		cpu.EIP = next
		return EvHalt, nil
	case SYSCALL:
		cpu.EIP = next
		return EvSyscall, nil

	case MOVri:
		cpu.R[in.R1] = uint32(in.Imm)
	case MOVrr:
		cpu.R[in.R1] = cpu.R[in.R2]
	case LOAD:
		v, err := mem.Load32(cpu.R[in.R2] + uint32(in.Imm))
		if err != nil {
			return EvNone, err
		}
		cpu.R[in.R1] = v
	case STORE:
		if err := mem.Store32(cpu.R[in.R2]+uint32(in.Imm), cpu.R[in.R1]); err != nil {
			return EvNone, err
		}
	case LOADB:
		v, err := mem.Load8(cpu.R[in.R2] + uint32(in.Imm))
		if err != nil {
			return EvNone, err
		}
		cpu.R[in.R1] = uint32(v)
	case STOREB:
		if err := mem.Store8(cpu.R[in.R2]+uint32(in.Imm), uint8(cpu.R[in.R1])); err != nil {
			return EvNone, err
		}
	case LOADX:
		addr := cpu.R[in.R2] + cpu.R[in.R3]<<in.Scale + uint32(in.Imm)
		v, err := mem.Load32(addr)
		if err != nil {
			return EvNone, err
		}
		cpu.R[in.R1] = v
	case STOREX:
		addr := cpu.R[in.R2] + cpu.R[in.R3]<<in.Scale + uint32(in.Imm)
		if err := mem.Store32(addr, cpu.R[in.R1]); err != nil {
			return EvNone, err
		}
	case LEA:
		cpu.R[in.R1] = cpu.R[in.R2] + cpu.R[in.R3]<<in.Scale + uint32(in.Imm)

	case ADDrr:
		cpu.R[in.R1] = addFlags(cpu, cpu.R[in.R1], cpu.R[in.R2], 0)
	case ADDri:
		cpu.R[in.R1] = addFlags(cpu, cpu.R[in.R1], uint32(in.Imm), 0)
	case ADCrr:
		cin := cpu.Flags & FlagCF
		cpu.R[in.R1] = addFlags(cpu, cpu.R[in.R1], cpu.R[in.R2], cin)
	case SUBrr:
		cpu.R[in.R1] = subFlags(cpu, cpu.R[in.R1], cpu.R[in.R2], 0)
	case SUBri:
		cpu.R[in.R1] = subFlags(cpu, cpu.R[in.R1], uint32(in.Imm), 0)
	case SBBrr:
		bin := cpu.Flags & FlagCF
		cpu.R[in.R1] = subFlags(cpu, cpu.R[in.R1], cpu.R[in.R2], bin)
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
		src := cpu.R[in.R1]
		v := subFlags(cpu, 0, src, 0)
		cpu.R[in.R1] = v
	case NOT:
		cpu.R[in.R1] = ^cpu.R[in.R1]

	case PUSH:
		sp := cpu.R[ESP] - 4
		if err := mem.Store32(sp, cpu.R[in.R1]); err != nil {
			return EvNone, err
		}
		cpu.R[ESP] = sp
	case PUSHI:
		sp := cpu.R[ESP] - 4
		if err := mem.Store32(sp, uint32(in.Imm)); err != nil {
			return EvNone, err
		}
		cpu.R[ESP] = sp
	case POP:
		v, err := mem.Load32(cpu.R[ESP])
		if err != nil {
			return EvNone, err
		}
		cpu.R[ESP] += 4
		cpu.R[in.R1] = v

	case JMP:
		cpu.EIP = next + uint32(in.Imm)
		return EvNone, nil
	case JE, JNE, JL, JLE, JG, JGE, JB, JAE:
		if CondTaken(in.Op, cpu.Flags) {
			cpu.EIP = next + uint32(in.Imm)
		} else {
			cpu.EIP = next
		}
		return EvNone, nil
	case JMPr:
		cpu.EIP = cpu.R[in.R1]
		return EvNone, nil
	case CALL:
		sp := cpu.R[ESP] - 4
		if err := mem.Store32(sp, next); err != nil {
			return EvNone, err
		}
		cpu.R[ESP] = sp
		cpu.EIP = next + uint32(in.Imm)
		return EvNone, nil
	case CALLr:
		sp := cpu.R[ESP] - 4
		if err := mem.Store32(sp, next); err != nil {
			return EvNone, err
		}
		cpu.R[ESP] = sp
		cpu.EIP = cpu.R[in.R1]
		return EvNone, nil
	case RET:
		v, err := mem.Load32(cpu.R[ESP])
		if err != nil {
			return EvNone, err
		}
		cpu.R[ESP] += 4
		cpu.EIP = v
		return EvNone, nil

	case FLD:
		v, err := mem.Load64(cpu.R[in.R2] + uint32(in.Imm))
		if err != nil {
			return EvNone, err
		}
		cpu.F[in.R1] = math.Float64frombits(v)
	case FST:
		if err := mem.Store64(cpu.R[in.R2]+uint32(in.Imm), math.Float64bits(cpu.F[in.R1])); err != nil {
			return EvNone, err
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
			b, err := mem.Load8(cpu.R[ESI])
			if err != nil {
				return EvNone, err
			}
			if err := mem.Store8(cpu.R[EDI], b); err != nil {
				return EvNone, err
			}
			cpu.R[ESI]++
			cpu.R[EDI]++
			cpu.R[ECX]--
		}
	case STOS:
		al := uint8(cpu.R[EAX])
		for cpu.R[ECX] > 0 {
			if err := mem.Store8(cpu.R[EDI], al); err != nil {
				return EvNone, err
			}
			cpu.R[EDI]++
			cpu.R[ECX]--
		}

	default:
		return EvNone, fmt.Errorf("guest: illegal instruction %v at %#x", in.Op, cpu.EIP)
	}
	cpu.EIP = next
	return EvNone, nil
}
