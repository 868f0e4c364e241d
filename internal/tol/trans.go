package tol

import (
	"fmt"

	"darco/internal/guest"
	"darco/internal/ir"
)

// Guest → IR translation with lazy flag materialization.
//
// Guest ALU instructions define condition flags as a side effect. The
// translator does not compute them eagerly: each flag tracks either a
// materialized SSA value or a lazy reference to its setter (operation
// kind plus operands). Consumers synthesize exactly what they need — a
// conditional branch after a compare becomes a single host comparison —
// and only region exits materialize the full architectural flag state.
// This is the paper's "writes to the flag registers only if the written
// value is really going to be consumed" optimization.

// flagIdx indexes the five guest flags in translator tables.
type flagIdx uint8

const (
	fCF flagIdx = iota
	fZF
	fSF
	fOF
	fPF
	numFlags
)

func (f flagIdx) arch() ir.ArchReg { return ir.ArchCF + ir.ArchReg(f) }

// setKind classifies lazy flag setters.
type setKind uint8

const (
	setNone  setKind = iota
	setAdd           // CF/OF/SZP from a+b=res
	setSub           // CF/OF/SZP from a-b=res (also CMP, NEG with a=0)
	setLogic         // CF=OF=0, SZP from res
	setShl           // shift-left flags; n is the masked shift amount
	setShr
	setSar
	setSZP   // only ZF/SF/PF defined, from res
	setIncOF // OF = (a == cmp)
	setMul   // CF=OF = high half disagrees with sign extension
)

// setter is a lazy flag definition.
type setter struct {
	kind setKind
	a, b ir.ValueID
	res  ir.ValueID
	n    ir.ValueID // shift amount (already masked to 0..31)
	cmp  uint32     // comparison constant for setIncOF
}

// flagSrc is the current source of one flag: a materialized value or a
// lazy setter, by its index in xlate.setters (0 = none).
type flagSrc struct {
	val ir.ValueID
	set int
}

// xlate translates a guest instruction path into an ir.Region.
type xlate struct {
	r       *ir.Region
	env     [ir.NumArchRegs]ir.ValueID // current arch values (written or read); 0 = untouched
	livein  [ir.NumArchRegs]ir.ValueID // entry values; 0 = not read
	flags   [numFlags]flagSrc
	setters []setter // setters[0] is the "no setter" placeholder

	// eager disables lazy flag materialization (ablation).
	eager bool

	// Retirement accounting along the translated path.
	guestInsns int
	guestBBs   int

	gpc uint32 // guest PC of the instruction being translated
}

// scratch is the TOL's translation working memory: the IR scratch, the
// guest→IR translator state, the arenas decoded basic blocks point into
// and the superblock plan. Each translation resets what it uses and
// reallocates nothing once warm. Nothing that outlives a translation
// may alias it — a codecache.Block owns copies of its code and metadata,
// because chaining patches block code in place — and what the debug API
// hands out (BuildRegionIR's region, whatever its passes return) is
// valid until the next translation or debug-API call on the same TOL.
type scratch struct {
	ir   ir.Scratch
	x    xlate
	plan sbPlan
}

// newXlate resets the translator state for a new region.
func (s *scratch) newXlate(entry uint32, useAsserts, eager bool) *xlate {
	x := &s.x
	*x = xlate{r: s.ir.NewRegion(entry, useAsserts), eager: eager, setters: append(x.setters[:0], setter{})}
	return x
}

// emit appends an instruction, allocating its destination value.
func (x *xlate) emit(in ir.Inst) ir.ValueID {
	if in.Dst == -1 {
		in.Dst = x.r.NewValue()
	}
	in.GPC = x.gpc
	x.r.Emit(in)
	return in.Dst
}

// constI and constF return the region's value for a constant, emitting
// it at the first instruction that needs it.
func (x *xlate) constI(v uint32) ir.ValueID {
	return x.r.Const(ir.Inst{Op: ir.ConstI, ImmU: v, GPC: x.gpc})
}

func (x *xlate) constF(v float64) ir.ValueID {
	return x.r.Const(ir.Inst{Op: ir.ConstF, ImmF: v, GPC: x.gpc})
}

// op2 and op1 emit a computation, building it in its slot of the
// region: copying a ~100-byte ir.Inst into place costs more than the
// rest of the append.
func (x *xlate) op2(op ir.Op, a, b ir.ValueID) ir.ValueID {
	r := x.r
	r.Code = append(r.Code, ir.Inst{})
	in := &r.Code[len(r.Code)-1]
	in.Op, in.Dst, in.A, in.B, in.GPC = op, r.NewValue(), a, b, x.gpc
	return in.Dst
}

func (x *xlate) op1(op ir.Op, a ir.ValueID) ir.ValueID { return x.op2(op, a, 0) }

// get reads the current value of an architectural register, creating its
// LiveIn on first touch.
func (x *xlate) get(a ir.ArchReg) ir.ValueID {
	if v := x.env[a]; v != 0 {
		return v
	}
	v := x.emit(ir.Inst{Op: ir.LiveIn, Dst: -1, Arch: a})
	x.livein[a] = v
	x.env[a] = v
	return v
}

// set records a new value for an architectural register.
func (x *xlate) set(a ir.ArchReg, v ir.ValueID) { x.env[a] = v }

func (x *xlate) getGPR(r uint8) ir.ValueID    { return x.get(ir.ArchReg(r)) }
func (x *xlate) setGPR(r uint8, v ir.ValueID) { x.set(ir.ArchReg(r), v) }
func (x *xlate) getFPR(r uint8) ir.ValueID    { return x.get(ir.ArchF0 + ir.ArchReg(r)) }
func (x *xlate) setFPR(r uint8, v ir.ValueID) { x.set(ir.ArchF0+ir.ArchReg(r), v) }

// getFlagLive reads a flag's entry value.
func (x *xlate) getFlagLive(f flagIdx) ir.ValueID {
	a := f.arch()
	if v := x.livein[a]; v != 0 {
		return v
	}
	v := x.emit(ir.Inst{Op: ir.LiveIn, Dst: -1, Arch: a})
	x.livein[a] = v
	if x.flags[f] == (flagSrc{}) {
		x.flags[f].val = v
	}
	return v
}

// lazy records a lazy flag definition and returns its source.
func (x *xlate) lazy(s setter) flagSrc {
	x.setters = append(x.setters, s)
	return flagSrc{set: len(x.setters) - 1}
}

// setAllFlags points every flag at one lazy setter (or, in the eager
// ablation, materializes all five immediately).
func (x *xlate) setAllFlags(s setter) {
	src := x.lazy(s)
	for f := fCF; f < numFlags; f++ {
		x.flags[f] = src
	}
	if x.eager {
		for f := fCF; f < numFlags; f++ {
			v := x.flag(f)
			x.emit(ir.Inst{Op: ir.SetArch, Arch: f.arch(), A: v})
		}
	}
}

// flag returns the materialized 0/1 value of a flag, computing and
// caching it if the source is lazy.
func (x *xlate) flag(f flagIdx) ir.ValueID {
	src := &x.flags[f]
	if src.val == 0 && src.set == 0 {
		src.val = x.getFlagLive(f) // untouched: the entry value
	} else if src.val == 0 {
		src.val = x.materialize(f, &x.setters[src.set])
	}
	return src.val
}

// materialize computes one flag from its lazy setter.
func (x *xlate) materialize(f flagIdx, s *setter) ir.ValueID {
	zero := func() ir.ValueID { return x.constI(0) }
	switch f {
	case fZF:
		return x.op2(ir.Seq, s.res, zero())
	case fSF:
		return x.op2(ir.Shr, s.res, x.constI(31))
	case fPF:
		// Even parity of the low result byte: the classic xor-fold.
		t := x.op2(ir.And, s.res, x.constI(0xFF))
		t4 := x.op2(ir.Shr, t, x.constI(4))
		t = x.op2(ir.Xor, t, t4)
		t2 := x.op2(ir.Shr, t, x.constI(2))
		t = x.op2(ir.Xor, t, t2)
		t1 := x.op2(ir.Shr, t, x.constI(1))
		t = x.op2(ir.Xor, t, t1)
		t = x.op2(ir.And, t, x.constI(1))
		return x.op2(ir.Xor, t, x.constI(1))
	case fCF:
		switch s.kind {
		case setAdd:
			return x.op2(ir.Sltu, s.res, s.a)
		case setSub:
			return x.op2(ir.Sltu, s.a, s.b)
		case setLogic, setSZP:
			return zero()
		case setShl:
			// CF = bit shifted out = (a >> ((32-n)&31)) & 1, for n>0.
			t := x.op2(ir.Sub, x.constI(32), s.n)
			t = x.op2(ir.And, t, x.constI(31))
			t = x.op2(ir.Shr, s.a, t)
			t = x.op2(ir.And, t, x.constI(1))
			nz := x.op2(ir.Sne, s.n, zero())
			return x.op2(ir.And, t, nz)
		case setShr, setSar:
			// CF = (a >> ((n-1)&31)) & 1, for n>0.
			t := x.op2(ir.Sub, s.n, x.constI(1))
			t = x.op2(ir.And, t, x.constI(31))
			t = x.op2(ir.Shr, s.a, t)
			t = x.op2(ir.And, t, x.constI(1))
			nz := x.op2(ir.Sne, s.n, zero())
			return x.op2(ir.And, t, nz)
		case setMul:
			return x.mulOverflow(s)
		case setIncOF:
			// INC/DEC never reach here: their CF source is inherited.
			return zero()
		}
	case fOF:
		switch s.kind {
		case setAdd:
			t1 := x.op2(ir.Xor, s.a, s.res)
			t2 := x.op2(ir.Xor, s.b, s.res)
			t := x.op2(ir.And, t1, t2)
			return x.op2(ir.Shr, t, x.constI(31))
		case setSub:
			t1 := x.op2(ir.Xor, s.a, s.b)
			t2 := x.op2(ir.Xor, s.a, s.res)
			t := x.op2(ir.And, t1, t2)
			return x.op2(ir.Shr, t, x.constI(31))
		case setLogic, setSZP, setSar:
			return zero()
		case setShl:
			// OF = top bit changed, for n>0.
			t1 := x.op2(ir.Shr, s.a, x.constI(31))
			t2 := x.op2(ir.Shr, s.res, x.constI(31))
			t := x.op2(ir.Xor, t1, t2)
			nz := x.op2(ir.Sne, s.n, x.constI(0))
			return x.op2(ir.And, t, nz)
		case setShr:
			// OF = sign bit of the source, for n>0.
			t := x.op2(ir.Shr, s.a, x.constI(31))
			nz := x.op2(ir.Sne, s.n, x.constI(0))
			return x.op2(ir.And, t, nz)
		case setMul:
			return x.mulOverflow(s)
		case setIncOF:
			return x.op2(ir.Seq, s.a, x.constI(s.cmp))
		}
	}
	return x.constI(0)
}

// mulOverflow synthesizes the IMUL CF/OF: set when the full 64-bit
// product does not fit in the 32-bit result.
func (x *xlate) mulOverflow(s *setter) ir.ValueID {
	hi := x.op2(ir.Mulh, s.a, s.b)
	sext := x.op2(ir.Sar, s.res, x.constI(31))
	return x.op2(ir.Sne, hi, sext)
}

// sharedSubSetter reports the common sub-kind setter of the flags a
// condition consults, enabling direct condition synthesis.
func (x *xlate) sharedSubSetter(fs ...flagIdx) *setter {
	set := x.flags[fs[0]].set
	for _, f := range fs {
		if x.flags[f].set != set {
			return nil
		}
	}
	if x.setters[set].kind != setSub {
		return nil
	}
	return &x.setters[set]
}

// cond synthesizes the 0/1 taken condition of a guest conditional branch.
func (x *xlate) cond(op guest.Op) ir.ValueID {
	not := func(v ir.ValueID) ir.ValueID { return x.op2(ir.Xor, v, x.constI(1)) }
	switch op {
	case guest.JE, guest.JNE:
		// ZF is res==0 for every lazy setter kind.
		if set := x.flags[fZF].set; set != 0 {
			v := x.op2(ir.Seq, x.setters[set].res, x.constI(0))
			if op == guest.JNE {
				return not(v)
			}
			return v
		}
		v := x.flag(fZF)
		if op == guest.JNE {
			return not(v)
		}
		return v
	case guest.JL:
		if s := x.sharedSubSetter(fSF, fOF); s != nil {
			return x.op2(ir.Slt, s.a, s.b)
		}
		return x.op2(ir.Xor, x.flag(fSF), x.flag(fOF))
	case guest.JGE:
		if s := x.sharedSubSetter(fSF, fOF); s != nil {
			return not(x.op2(ir.Slt, s.a, s.b))
		}
		return not(x.op2(ir.Xor, x.flag(fSF), x.flag(fOF)))
	case guest.JG:
		if s := x.sharedSubSetter(fZF, fSF, fOF); s != nil {
			return x.op2(ir.Slt, s.b, s.a)
		}
		lt := x.op2(ir.Xor, x.flag(fSF), x.flag(fOF))
		le := x.op2(ir.Or, x.flag(fZF), lt)
		return not(le)
	case guest.JLE:
		if s := x.sharedSubSetter(fZF, fSF, fOF); s != nil {
			return not(x.op2(ir.Slt, s.b, s.a))
		}
		lt := x.op2(ir.Xor, x.flag(fSF), x.flag(fOF))
		return x.op2(ir.Or, x.flag(fZF), lt)
	case guest.JB:
		if s := x.sharedSubSetter(fCF); s != nil {
			return x.op2(ir.Sltu, s.a, s.b)
		}
		return x.flag(fCF)
	case guest.JAE:
		if s := x.sharedSubSetter(fCF); s != nil {
			return not(x.op2(ir.Sltu, s.a, s.b))
		}
		return not(x.flag(fCF))
	}
	panic(fmt.Sprintf("tol: cond on non-conditional op %v", op))
}

// exitState materializes the architectural writeback set: every register
// and flag whose current value differs from its entry value.
func (x *xlate) exitState() []ir.ArchVal {
	var buf [ir.NumArchRegs]ir.ArchVal
	st := buf[:0]
	for a := ir.ArchReg(0); a < ir.NumArchRegs; a++ {
		if a >= ir.ArchCF && a <= ir.ArchPF {
			continue // flags handled below
		}
		if v := x.env[a]; v != 0 && v != x.livein[a] {
			st = append(st, ir.ArchVal{Arch: a, Val: v})
		}
	}
	for f := fCF; f < numFlags; f++ {
		src := x.flags[f]
		if src.set == 0 && src.val == x.livein[f.arch()] {
			continue // untouched, or read but unchanged
		}
		st = append(st, ir.ArchVal{Arch: f.arch(), Val: x.flag(f)})
	}
	return x.r.KeepState(st)
}

func (x *xlate) meta(taken bool) ir.ExitInfo {
	return ir.ExitInfo{GuestInsns: x.guestInsns, GuestBBs: x.guestBBs, Taken: taken}
}

func (x *xlate) emitExit(target uint32, taken bool) {
	x.emit(ir.Inst{Op: ir.Exit, ImmU: target, State: x.exitState(), Meta: x.meta(taken)})
}

func (x *xlate) emitExitIf(cond ir.ValueID, target uint32, taken bool) {
	x.emit(ir.Inst{Op: ir.ExitIf, A: cond, ImmU: target, State: x.exitState(), Meta: x.meta(taken)})
}

func (x *xlate) emitExitInd(addr ir.ValueID) {
	x.emit(ir.Inst{Op: ir.ExitInd, A: addr, State: x.exitState(), Meta: x.meta(false)})
}

func (x *xlate) emitAssert(cond ir.ValueID) {
	x.emit(ir.Inst{Op: ir.Assert, A: cond})
}
