package guest

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Inst is a decoded GISA instruction. Operand meaning depends on Op:
//
//	FormR1:  R1 is the single register operand.
//	FormR:   R1 is dst (or first), R2 is src (or second). FP ops index FPRs.
//	FormI:   R1 is dst, Imm is the 32-bit immediate.
//	FormM:   R1 is the data register (GPR or FPR), R2 the base GPR, Imm disp.
//	FormMX:  R1 data reg, R2 base, R3 index, Scale in {0..3}, Imm disp.
//	FormB:   Imm is a signed displacement relative to the next instruction.
//	FormF64: R1 is the FPR, F64 the immediate.
//	FormImm: Imm is the 32-bit immediate.
//
// The byte fields come first and F64 last, so an Inst packs into 24
// bytes: a decoded block is a slice of them.
type Inst struct {
	Op    Op
	R1    uint8
	R2    uint8
	R3    uint8
	Scale uint8
	Size  uint8 // encoded length in bytes
	Imm   int32
	F64   float64
}

// Len reports the encoded length of the instruction in bytes.
func (in *Inst) Len() int { return FormLen(in.Op.Desc().Form) }

// Target computes the absolute branch target of a direct branch located
// at pc. Only meaningful for FormB instructions.
func (in *Inst) Target(pc uint32) uint32 {
	return pc + uint32(in.Len()) + uint32(in.Imm)
}

// Encode appends the binary encoding of in to buf and returns the
// extended slice.
func (in *Inst) Encode(buf []byte) []byte {
	d := in.Op.Desc()
	buf = append(buf, byte(in.Op))
	switch d.Form {
	case FormN:
	case FormR1:
		buf = append(buf, in.R1)
	case FormR:
		buf = append(buf, in.R1<<4|in.R2&0xf)
	case FormI:
		buf = append(buf, in.R1)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Imm))
	case FormM:
		buf = append(buf, in.R1<<4|in.R2&0xf)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Imm))
	case FormMX:
		buf = append(buf, in.R1<<4|in.R2&0xf)
		buf = append(buf, in.Scale<<4|in.R3&0xf)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Imm))
	case FormB, FormImm:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Imm))
	case FormF64:
		buf = append(buf, in.R1)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(in.F64))
	}
	return buf
}

// Decode decodes one instruction from code. It returns the decoded
// instruction and the number of bytes consumed. A zero count signals an
// undecodable (truncated or illegal) instruction.
func Decode(code []byte) (Inst, int) {
	if len(code) == 0 {
		return Inst{Op: BAD}, 0
	}
	op := Op(code[0])
	if op == BAD || op >= numOps {
		return Inst{Op: BAD}, 0
	}
	d := op.Desc()
	n := FormLen(d.Form)
	if len(code) < n {
		return Inst{Op: BAD}, 0
	}
	in := Inst{Op: op, Size: uint8(n)}
	switch d.Form {
	case FormN:
	case FormR1:
		in.R1 = code[1]
		if in.R1 >= NumGPR && !d.IsFP {
			return Inst{Op: BAD}, 0
		}
	case FormR:
		in.R1 = code[1] >> 4
		in.R2 = code[1] & 0xf
		lim := uint8(NumGPR)
		if d.IsFP {
			lim = NumFPR
		}
		if in.R1 >= lim || in.R2 >= lim {
			return Inst{Op: BAD}, 0
		}
	case FormI:
		in.R1 = code[1]
		if in.R1 >= NumGPR {
			return Inst{Op: BAD}, 0
		}
		in.Imm = int32(binary.LittleEndian.Uint32(code[2:]))
	case FormM:
		in.R1 = code[1] >> 4
		in.R2 = code[1] & 0xf
		if in.R2 >= NumGPR {
			return Inst{Op: BAD}, 0
		}
		lim := uint8(NumGPR)
		if d.IsFP {
			lim = NumFPR
		}
		if in.R1 >= lim {
			return Inst{Op: BAD}, 0
		}
		in.Imm = int32(binary.LittleEndian.Uint32(code[2:]))
	case FormMX:
		in.R1 = code[1] >> 4
		in.R2 = code[1] & 0xf
		in.Scale = code[2] >> 4
		in.R3 = code[2] & 0xf
		if in.R1 >= NumGPR || in.R2 >= NumGPR || in.R3 >= NumGPR || in.Scale > 3 {
			return Inst{Op: BAD}, 0
		}
		in.Imm = int32(binary.LittleEndian.Uint32(code[3:]))
	case FormB, FormImm:
		in.Imm = int32(binary.LittleEndian.Uint32(code[1:]))
	case FormF64:
		in.R1 = code[1]
		if in.R1 >= NumFPR {
			return Inst{Op: BAD}, 0
		}
		in.F64 = math.Float64frombits(binary.LittleEndian.Uint64(code[2:]))
	}
	return in, n
}

// String renders the instruction in assembler syntax.
func (in *Inst) String() string {
	d := in.Op.Desc()
	rn := GPRName
	fn := func(r uint8) string { return fmt.Sprintf("f%d", r) }
	switch d.Form {
	case FormN:
		return d.Name
	case FormR1:
		if d.IsFP {
			return fmt.Sprintf("%s %s", d.Name, fn(in.R1))
		}
		return fmt.Sprintf("%s %s", d.Name, rn(in.R1))
	case FormR:
		if d.IsFP && in.Op != CVTIF && in.Op != CVTFI {
			return fmt.Sprintf("%s %s, %s", d.Name, fn(in.R1), fn(in.R2))
		}
		if in.Op == CVTIF {
			return fmt.Sprintf("%s %s, %s", d.Name, fn(in.R1), rn(in.R2))
		}
		if in.Op == CVTFI {
			return fmt.Sprintf("%s %s, %s", d.Name, rn(in.R1), fn(in.R2))
		}
		return fmt.Sprintf("%s %s, %s", d.Name, rn(in.R1), rn(in.R2))
	case FormI:
		return fmt.Sprintf("%s %s, %d", d.Name, rn(in.R1), in.Imm)
	case FormM:
		data := rn(in.R1)
		if d.IsFP {
			data = fn(in.R1)
		}
		if in.Op == STORE || in.Op == STOREB || in.Op == FST {
			return fmt.Sprintf("%s [%s%+d], %s", d.Name, rn(in.R2), in.Imm, data)
		}
		return fmt.Sprintf("%s %s, [%s%+d]", d.Name, data, rn(in.R2), in.Imm)
	case FormMX:
		addr := fmt.Sprintf("[%s+%s<<%d%+d]", rn(in.R2), rn(in.R3), in.Scale, in.Imm)
		if in.Op == STOREX {
			return fmt.Sprintf("%s %s, %s", d.Name, addr, rn(in.R1))
		}
		return fmt.Sprintf("%s %s, %s", d.Name, rn(in.R1), addr)
	case FormB:
		return fmt.Sprintf("%s %+d", d.Name, in.Imm)
	case FormImm:
		return fmt.Sprintf("%s %d", d.Name, in.Imm)
	case FormF64:
		return fmt.Sprintf("%s %s, %g", d.Name, fn(in.R1), in.F64)
	}
	return "bad"
}
