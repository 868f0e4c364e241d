package tol

import (
	"fmt"

	"darco/internal/guest"
	"darco/internal/ir"
)

// translatable reports whether TOL can include the opcode in translated
// code. Complex string instructions, system calls and HALT stay in the
// software layer (the interpreter is the safety net, §V-B1).
func translatable(op guest.Op) bool {
	switch op {
	case guest.SYSCALL, guest.HALT, guest.MOVS, guest.STOS, guest.BAD:
		return false
	}
	return true
}

// inst translates one non-terminator guest instruction at pc into IR and
// bumps the path retirement counter.
func (x *xlate) inst(pc uint32, in *guest.Inst) error {
	x.gpc = pc
	switch in.Op {
	case guest.NOP:

	case guest.MOVri:
		x.setGPR(in.R1, x.constI(uint32(in.Imm)))
	case guest.MOVrr:
		x.setGPR(in.R1, x.getGPR(in.R2))

	case guest.LOAD:
		v := x.emit(ir.Inst{Op: ir.Ld32, Dst: -1, A: x.getGPR(in.R2), Off: in.Imm})
		x.setGPR(in.R1, v)
	case guest.STORE:
		x.emit(ir.Inst{Op: ir.St32, A: x.getGPR(in.R2), Off: in.Imm, B: x.getGPR(in.R1)})
	case guest.LOADB:
		v := x.emit(ir.Inst{Op: ir.Ld8, Dst: -1, A: x.getGPR(in.R2), Off: in.Imm})
		x.setGPR(in.R1, v)
	case guest.STOREB:
		x.emit(ir.Inst{Op: ir.St8, A: x.getGPR(in.R2), Off: in.Imm, B: x.getGPR(in.R1)})
	case guest.LOADX:
		ea := x.indexedAddr(in)
		v := x.emit(ir.Inst{Op: ir.Ld32, Dst: -1, A: ea, Off: in.Imm})
		x.setGPR(in.R1, v)
	case guest.STOREX:
		ea := x.indexedAddr(in)
		x.emit(ir.Inst{Op: ir.St32, A: ea, Off: in.Imm, B: x.getGPR(in.R1)})
	case guest.LEA:
		ea := x.indexedAddr(in)
		x.setGPR(in.R1, x.op2(ir.Add, ea, x.constI(uint32(in.Imm))))

	case guest.ADDrr, guest.ADDri:
		a := x.getGPR(in.R1)
		b := x.aluSrc(in)
		res := x.op2(ir.Add, a, b)
		x.setAllFlags(setter{kind: setAdd, a: a, b: b, res: res})
		x.setGPR(in.R1, res)
	case guest.SUBrr, guest.SUBri:
		a := x.getGPR(in.R1)
		b := x.aluSrc(in)
		res := x.op2(ir.Sub, a, b)
		x.setAllFlags(setter{kind: setSub, a: a, b: b, res: res})
		x.setGPR(in.R1, res)
	case guest.CMPrr, guest.CMPri:
		a := x.getGPR(in.R1)
		b := x.aluSrc(in)
		res := x.op2(ir.Sub, a, b)
		x.setAllFlags(setter{kind: setSub, a: a, b: b, res: res})
	case guest.ADCrr:
		cf := x.flag(fCF)
		a := x.getGPR(in.R1)
		b := x.getGPR(in.R2)
		t := x.op2(ir.Add, a, b)
		res := x.op2(ir.Add, t, cf)
		c1 := x.op2(ir.Sltu, t, a)
		c2 := x.op2(ir.Sltu, res, t)
		ncf := x.op2(ir.Or, c1, c2)
		t1 := x.op2(ir.Xor, a, res)
		t2 := x.op2(ir.Xor, b, res)
		nof := x.op2(ir.Shr, x.op2(ir.And, t1, t2), x.constI(31))
		x.setAllFlags(setter{kind: setSZP, res: res})
		x.flags[fCF] = flagSrc{val: ncf}
		x.flags[fOF] = flagSrc{val: nof}
		x.setGPR(in.R1, res)
	case guest.SBBrr:
		cf := x.flag(fCF)
		a := x.getGPR(in.R1)
		b := x.getGPR(in.R2)
		t := x.op2(ir.Sub, a, b)
		res := x.op2(ir.Sub, t, cf)
		b1 := x.op2(ir.Sltu, a, b)
		b2 := x.op2(ir.Sltu, t, cf)
		ncf := x.op2(ir.Or, b1, b2)
		t1 := x.op2(ir.Xor, a, b)
		t2 := x.op2(ir.Xor, a, res)
		nof := x.op2(ir.Shr, x.op2(ir.And, t1, t2), x.constI(31))
		x.setAllFlags(setter{kind: setSZP, res: res})
		x.flags[fCF] = flagSrc{val: ncf}
		x.flags[fOF] = flagSrc{val: nof}
		x.setGPR(in.R1, res)

	case guest.ANDrr, guest.ANDri:
		x.logic(in, ir.And)
	case guest.ORrr, guest.ORri:
		x.logic(in, ir.Or)
	case guest.XORrr, guest.XORri:
		x.logic(in, ir.Xor)
	case guest.TESTrr:
		a := x.getGPR(in.R1)
		b := x.getGPR(in.R2)
		res := x.op2(ir.And, a, b)
		x.setAllFlags(setter{kind: setLogic, res: res})

	case guest.SHLri, guest.SHLrr:
		x.shift(in, ir.Shl, setShl)
	case guest.SHRri, guest.SHRrr:
		x.shift(in, ir.Shr, setShr)
	case guest.SARri:
		x.shift(in, ir.Sar, setSar)

	case guest.IMULrr, guest.IMULri:
		a := x.getGPR(in.R1)
		b := x.aluSrc(in)
		res := x.op2(ir.Mul, a, b)
		x.setAllFlags(setter{kind: setMul, a: a, b: b, res: res})
		x.setGPR(in.R1, res)
	case guest.IDIV:
		num := x.getGPR(guest.EAX)
		den := x.getGPR(in.R1)
		q := x.op2(ir.Div, num, den)
		rem := x.op2(ir.Rem, num, den)
		x.setGPR(guest.EAX, q)
		x.setGPR(guest.EDX, rem)

	case guest.INC, guest.DEC:
		a := x.getGPR(in.R1)
		op := ir.Add
		cmp := uint32(0x7FFFFFFF)
		if in.Op == guest.DEC {
			op = ir.Sub
			cmp = 0x80000000
		}
		res := x.op2(op, a, x.constI(1))
		szp := x.lazy(setter{kind: setSZP, res: res})
		x.flags[fZF], x.flags[fSF], x.flags[fPF] = szp, szp, szp // CF preserved
		x.flags[fOF] = x.lazy(setter{kind: setIncOF, a: a, cmp: cmp})
		x.setGPR(in.R1, res)
	case guest.NEG:
		a := x.getGPR(in.R1)
		zero := x.constI(0)
		res := x.op2(ir.Sub, zero, a)
		x.setAllFlags(setter{kind: setSub, a: zero, b: a, res: res})
		x.setGPR(in.R1, res)
	case guest.NOT:
		x.setGPR(in.R1, x.op2(ir.Xor, x.getGPR(in.R1), x.constI(0xFFFFFFFF)))

	case guest.PUSH, guest.PUSHI:
		sp := x.op2(ir.Sub, x.getGPR(guest.ESP), x.constI(4))
		var v ir.ValueID
		if in.Op == guest.PUSH {
			v = x.getGPR(in.R1)
		} else {
			v = x.constI(uint32(in.Imm))
		}
		x.emit(ir.Inst{Op: ir.St32, A: sp, B: v})
		x.setGPR(guest.ESP, sp)
	case guest.POP:
		sp := x.getGPR(guest.ESP)
		v := x.emit(ir.Inst{Op: ir.Ld32, Dst: -1, A: sp})
		x.setGPR(guest.ESP, x.op2(ir.Add, sp, x.constI(4)))
		x.setGPR(in.R1, v)

	case guest.FLD:
		v := x.emit(ir.Inst{Op: ir.LdF, Dst: -1, A: x.getGPR(in.R2), Off: in.Imm})
		x.setFPR(in.R1, v)
	case guest.FST:
		x.emit(ir.Inst{Op: ir.StF, A: x.getGPR(in.R2), Off: in.Imm, B: x.getFPR(in.R1)})
	case guest.FLDI:
		x.setFPR(in.R1, x.constF(in.F64))
	case guest.FMOV:
		x.setFPR(in.R1, x.getFPR(in.R2))
	case guest.FADD:
		x.setFPR(in.R1, x.op2(ir.Fadd, x.getFPR(in.R1), x.getFPR(in.R2)))
	case guest.FSUB:
		x.setFPR(in.R1, x.op2(ir.Fsub, x.getFPR(in.R1), x.getFPR(in.R2)))
	case guest.FMUL:
		x.setFPR(in.R1, x.op2(ir.Fmul, x.getFPR(in.R1), x.getFPR(in.R2)))
	case guest.FDIV:
		x.setFPR(in.R1, x.op2(ir.Fdiv, x.getFPR(in.R1), x.getFPR(in.R2)))
	case guest.FSQRT:
		x.setFPR(in.R1, x.op1(ir.Fsqrt, x.getFPR(in.R2)))
	case guest.FABS:
		x.setFPR(in.R1, x.op1(ir.Fabs, x.getFPR(in.R2)))
	case guest.FNEG:
		x.setFPR(in.R1, x.op1(ir.Fneg, x.getFPR(in.R2)))
	case guest.FSIN:
		x.setFPR(in.R1, x.trig(x.getFPR(in.R2), guest.SinCoef[:], true))
	case guest.FCOS:
		x.setFPR(in.R1, x.trig(x.getFPR(in.R2), guest.CosCoef[:], false))
	case guest.FCMP:
		a := x.getFPR(in.R1)
		b := x.getFPR(in.R2)
		un := x.op2(ir.Funord, a, b)
		eq := x.op2(ir.Fseq, a, b)
		lt := x.op2(ir.Fslt, a, b)
		zero := x.constI(0)
		x.flags[fZF] = flagSrc{val: x.op2(ir.Or, eq, un)}
		x.flags[fCF] = flagSrc{val: x.op2(ir.Or, lt, un)}
		x.flags[fPF] = flagSrc{val: un}
		x.flags[fSF] = flagSrc{val: zero}
		x.flags[fOF] = flagSrc{val: zero}
	case guest.CVTIF:
		x.setFPR(in.R1, x.op1(ir.Fcvtf, x.getGPR(in.R2)))
	case guest.CVTFI:
		x.setGPR(in.R1, x.op1(ir.Fcvti, x.getFPR(in.R2)))

	default:
		return fmt.Errorf("tol: untranslatable op %v at %#x", in.Op, pc)
	}
	x.guestInsns++
	return nil
}

func (x *xlate) aluSrc(in *guest.Inst) ir.ValueID {
	switch in.Op.Desc().Form {
	case guest.FormI:
		return x.constI(uint32(in.Imm))
	default:
		return x.getGPR(in.R2)
	}
}

func (x *xlate) indexedAddr(in *guest.Inst) ir.ValueID {
	idx := x.getGPR(in.R3)
	if in.Scale > 0 {
		idx = x.op2(ir.Shl, idx, x.constI(uint32(in.Scale)))
	}
	return x.op2(ir.Add, x.getGPR(in.R2), idx)
}

func (x *xlate) logic(in *guest.Inst, op ir.Op) {
	a := x.getGPR(in.R1)
	b := x.aluSrc(in)
	res := x.op2(op, a, b)
	x.setAllFlags(setter{kind: setLogic, res: res})
	x.setGPR(in.R1, res)
}

func (x *xlate) shift(in *guest.Inst, op ir.Op, kind setKind) {
	a := x.getGPR(in.R1)
	var n ir.ValueID
	if in.Op.Desc().Form == guest.FormI {
		n = x.constI(uint32(in.Imm) & 31)
	} else {
		n = x.op2(ir.And, x.getGPR(in.R2), x.constI(31))
	}
	res := x.op2(op, a, n)
	x.setAllFlags(setter{kind: kind, a: a, n: n, res: res})
	x.setGPR(in.R1, res)
}

// trig expands guest FSIN/FCOS into the straight-line software sequence:
// round-to-nearest range reduction by 2π followed by a Horner
// polynomial. The sequence mirrors guest.SoftSin / guest.SoftCos one
// IEEE operation per IR instruction so translated execution is
// bit-identical to interpretation (see guest.ReduceTwoPi).
func (x *xlate) trig(arg ir.ValueID, coef []float64, mulY bool) ir.ValueID {
	q := x.op2(ir.Fmul, arg, x.constF(guest.InvTwoPi))
	n := x.op1(ir.Fcvti, q)
	nf := x.op1(ir.Fcvtf, n)
	r := x.op2(ir.Fsub, q, nf)
	upI := x.op2(ir.Fslt, x.constF(0.5), r)  // r > 0.5
	dnI := x.op2(ir.Fslt, r, x.constF(-0.5)) // r < -0.5
	up := x.op1(ir.Fcvtf, upI)
	down := x.op1(ir.Fcvtf, dnI)
	n1 := x.op2(ir.Fadd, nf, up)
	n2 := x.op2(ir.Fsub, n1, down)
	m := x.op2(ir.Fmul, n2, x.constF(guest.TwoPi))
	y := x.op2(ir.Fsub, arg, m)
	y2 := x.op2(ir.Fmul, y, y)
	acc := x.constF(coef[len(coef)-1])
	for i := len(coef) - 2; i >= 0; i-- {
		t := x.op2(ir.Fmul, acc, y2)
		acc = x.op2(ir.Fadd, t, x.constF(coef[i]))
	}
	if mulY {
		acc = x.op2(ir.Fmul, acc, y)
	}
	return acc
}
