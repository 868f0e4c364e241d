package ir

import (
	"fmt"
	"math"

	"darco/internal/host"
)

// Code generation: scheduled, register-allocated IR → host instructions.
//
// Layout of an emitted block:
//
//	CHKPT                       architectural checkpoint
//	<body>                      computation in temporaries
//	...at each exit site:
//	   [BEQZ cond, skip]        only for conditional exits
//	   <parallel moves>         dirty architectural state → pinned regs
//	   COMMIT                   drain the gated store buffer
//	   EXIT/EXITIND             leave to guest PC
//	   skip:
//
// Pinned registers are written only on taken exit paths, so the fall-
// through continuation always sees intact architectural state.

// GenResult is the output of code generation.
type GenResult struct {
	Code   []host.Inst
	Exits  []ExitSite // in emission order
	Spills int
}

// ExitSite is the retirement metadata of the exit instruction at Idx.
type ExitSite struct {
	Idx  int
	Meta ExitInfo
}

type gen struct {
	r       *Region
	a       *Alloc
	out     []host.Inst
	exits   []ExitSite
	pending []move
	err     error
}

// Generate lowers the region to host code.
func (r *Region) Generate(a *Alloc) (*GenResult, error) {
	s := r.scratch()
	g := &s.gen
	*g = gen{r: r, a: a, out: g.out[:0], exits: g.exits[:0], pending: g.pending[:0]}
	g.emit(host.Inst{Op: host.CHKPT, Target: r.Entry, GPC: r.Entry})
	for i := range r.Code {
		in := &r.Code[i]
		g.inst(in)
		// A result computed into the scratch register lives in a slot.
		if l := a.Loc[in.Dst]; in.Dst != 0 && l.Kind == LocSlot {
			if l.FP {
				g.emit(host.Inst{Op: host.SPILLF, Rd: FPScr1, Imm: int32(l.N), GPC: in.GPC})
			} else {
				g.emit(host.Inst{Op: host.SPILLI, Rd: IntScr1, Imm: int32(l.N), GPC: in.GPC})
			}
		}
		if g.err != nil {
			return nil, g.err
		}
	}
	s.out = GenResult{Code: g.out, Exits: g.exits, Spills: a.Spills}
	return &s.out, nil
}

func (g *gen) emit(in host.Inst) int {
	g.out = append(g.out, in)
	return len(g.out) - 1
}

func (g *gen) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("codegen: "+format, args...)
	}
}

// constI and constF read a constant's payload.
func (g *gen) constI(v ValueID) int32   { return int32(g.a.constBits[v]) }
func (g *gen) constF(v ValueID) float64 { return math.Float64frombits(g.a.constBits[v]) }

// readInt materialises an integer value into a register, using scr for
// slot and immediate sources.
func (g *gen) readInt(v ValueID, scr uint8, gpc uint32) uint8 {
	l := g.a.Loc[v]
	switch l.Kind {
	case LocPinned, LocReg:
		if l.FP {
			g.fail("float value v%d read as int", v)
			return scr
		}
		return uint8(l.N)
	case LocSlot:
		g.emit(host.Inst{Op: host.UNSPILLI, Rd: scr, Imm: int32(l.N), GPC: gpc})
		return scr
	case LocImm:
		g.emit(host.Inst{Op: host.LI, Rd: scr, Imm: g.constI(v), GPC: gpc})
		return scr
	}
	g.fail("value v%d has no location", v)
	return scr
}

// readFP materialises a float value into an FP register.
func (g *gen) readFP(v ValueID, scr uint8, gpc uint32) uint8 {
	l := g.a.Loc[v]
	switch l.Kind {
	case LocPinned, LocReg:
		if !l.FP {
			g.fail("int value v%d read as float", v)
			return scr
		}
		return uint8(l.N)
	case LocSlot:
		g.emit(host.Inst{Op: host.UNSPILLF, Rd: scr, Imm: int32(l.N), GPC: gpc})
		return scr
	case LocImm:
		g.emit(host.FLIInst(scr, g.constF(v), gpc))
		return scr
	}
	g.fail("value v%d has no location", v)
	return scr
}

// dst returns the register to compute v's result into: its own, or scr
// when it lives in a spill slot (Generate stores it there afterwards) or
// is dead (possible when DCE is disabled in ablations).
func (g *gen) dst(v ValueID, scr uint8) uint8 {
	switch l := g.a.Loc[v]; l.Kind {
	case LocReg:
		return uint8(l.N)
	case LocSlot, LocNone:
	default:
		g.fail("bad destination location %v for v%d", l, v)
	}
	return scr
}

func (g *gen) dstInt(v ValueID) uint8 { return g.dst(v, IntScr1) }
func (g *gen) dstFP(v ValueID) uint8  { return g.dst(v, FPScr1) }

// immOf reports the foldable immediate for value v, if it has one.
func (g *gen) immOf(v ValueID) (int32, bool) {
	if l := g.a.Loc[v]; l.Kind == LocImm && !l.FP {
		return g.constI(v), true
	}
	return 0, false
}

// Host opcodes by IR op; NOPH where there is none.
var intOpMap = [NumOps]host.Op{
	Add: host.ADD, Sub: host.SUB, Mul: host.MUL, Mulh: host.MULH,
	Div: host.DIV, Rem: host.REM, And: host.AND, Or: host.OR, Xor: host.XOR,
	Shl: host.SHL, Shr: host.SHR, Sar: host.SAR,
	Slt: host.SLT, Sltu: host.SLTU, Seq: host.SEQ, Sne: host.SNE,
}

var immOpMap = [NumOps]host.Op{
	Add: host.ADDI, And: host.ANDI, Or: host.ORI, Xor: host.XORI,
	Shl: host.SHLI, Shr: host.SHRI, Sar: host.SARI,
}

var fpOpMap = [NumOps]host.Op{
	Fadd: host.FADDH, Fsub: host.FSUBH, Fmul: host.FMULH, Fdiv: host.FDIVH,
}

func (g *gen) inst(in *Inst) {
	gpc := in.GPC
	switch in.Op {
	case Nop, LiveIn:
		// LiveIn values live in pinned registers; nothing to emit.
	case ConstI:
		if g.a.Loc[in.Dst].Kind == LocImm {
			return
		}
		rd := g.dstInt(in.Dst)
		g.emit(host.Inst{Op: host.LI, Rd: rd, Imm: int32(in.ImmU), GPC: gpc})
	case ConstF:
		if g.a.Loc[in.Dst].Kind == LocImm {
			return
		}
		fd := g.dstFP(in.Dst)
		g.emit(host.FLIInst(fd, in.ImmF, gpc))
	case Mov:
		ra := g.readInt(in.A, IntScr1, gpc)
		rd := g.dstInt(in.Dst)
		g.emit(host.Inst{Op: host.MOVH, Rd: rd, Ra: ra, GPC: gpc})
	case FMov:
		fa := g.readFP(in.A, FPScr1, gpc)
		fd := g.dstFP(in.Dst)
		g.emit(host.Inst{Op: host.FMOVH, Rd: fd, Ra: fa, GPC: gpc})

	case Add, Sub, Mul, Mulh, Div, Rem, And, Or, Xor, Shl, Shr, Sar, Slt, Sltu, Seq, Sne:
		ra := g.readInt(in.A, IntScr1, gpc)
		rd := g.dstInt(in.Dst)
		if imm, ok := g.immOf(in.B); ok {
			if hop := immOpMap[in.Op]; hop != host.NOPH {
				g.emit(host.Inst{Op: hop, Rd: rd, Ra: ra, Imm: imm, GPC: gpc})
				return
			}
			if in.Op == Sub {
				g.emit(host.Inst{Op: host.ADDI, Rd: rd, Ra: ra, Imm: -imm, GPC: gpc})
				return
			}
		}
		rb := g.readInt(in.B, IntScr2, gpc)
		g.emit(host.Inst{Op: intOpMap[in.Op], Rd: rd, Ra: ra, Rb: rb, GPC: gpc})

	case Ld32, Ld8:
		ra := g.readInt(in.A, IntScr1, gpc)
		rd := g.dstInt(in.Dst)
		hop := host.LD
		if in.Op == Ld8 {
			hop = host.LDB
		}
		g.emit(host.Inst{Op: hop, Rd: rd, Ra: ra, Imm: in.Off, Spec: in.Spec, GPC: gpc})
	case LdF:
		ra := g.readInt(in.A, IntScr1, gpc)
		fd := g.dstFP(in.Dst)
		g.emit(host.Inst{Op: host.FLDH, Rd: fd, Ra: ra, Imm: in.Off, Spec: in.Spec, GPC: gpc})
	case St32, St8:
		ra := g.readInt(in.A, IntScr1, gpc)
		rb := g.readInt(in.B, IntScr2, gpc)
		hop := host.ST
		if in.Op == St8 {
			hop = host.STB
		}
		g.emit(host.Inst{Op: hop, Rd: rb, Ra: ra, Imm: in.Off, Spec: in.Spec, GPC: gpc})
	case StF:
		ra := g.readInt(in.A, IntScr1, gpc)
		fb := g.readFP(in.B, FPScr2, gpc)
		g.emit(host.Inst{Op: host.FSTH, Rd: fb, Ra: ra, Imm: in.Off, Spec: in.Spec, GPC: gpc})

	case Fadd, Fsub, Fmul, Fdiv:
		fa := g.readFP(in.A, FPScr1, gpc)
		fb := g.readFP(in.B, FPScr2, gpc)
		fd := g.dstFP(in.Dst)
		g.emit(host.Inst{Op: fpOpMap[in.Op], Rd: fd, Ra: fa, Rb: fb, GPC: gpc})
	case Fsqrt, Fabs, Fneg:
		fa := g.readFP(in.A, FPScr1, gpc)
		fd := g.dstFP(in.Dst)
		hop := host.FSQRTH
		if in.Op == Fabs {
			hop = host.FABSH
		} else if in.Op == Fneg {
			hop = host.FNEGH
		}
		g.emit(host.Inst{Op: hop, Rd: fd, Ra: fa, GPC: gpc})
	case Fcvti:
		fa := g.readFP(in.A, FPScr1, gpc)
		rd := g.dstInt(in.Dst)
		g.emit(host.Inst{Op: host.FCVTI, Rd: rd, Ra: fa, GPC: gpc})
	case Fcvtf:
		ra := g.readInt(in.A, IntScr1, gpc)
		fd := g.dstFP(in.Dst)
		g.emit(host.Inst{Op: host.FCVTF, Rd: fd, Ra: ra, GPC: gpc})
	case Fslt, Fseq, Funord:
		fa := g.readFP(in.A, FPScr1, gpc)
		fb := g.readFP(in.B, FPScr2, gpc)
		rd := g.dstInt(in.Dst)
		hop := host.FSLT
		if in.Op == Fseq {
			hop = host.FSEQ
		} else if in.Op == Funord {
			hop = host.FUNORD
		}
		g.emit(host.Inst{Op: hop, Rd: rd, Ra: fa, Rb: fb, GPC: gpc})

	case Assert:
		ra := g.readInt(in.A, IntScr1, gpc)
		g.emit(host.Inst{Op: host.ASSERTH, Ra: ra, Target: g.r.Entry, GPC: gpc})

	case SetArch:
		// Eager architectural update (EagerFlags ablation): write the
		// value straight into its pinned host register.
		dst, fp := PinnedHostReg(in.Arch)
		if fp {
			fa := g.readFP(in.A, FPScr1, gpc)
			g.emit(host.Inst{Op: host.FMOVH, Rd: dst, Ra: fa, GPC: gpc})
		} else {
			ra := g.readInt(in.A, IntScr1, gpc)
			g.emit(host.Inst{Op: host.MOVH, Rd: dst, Ra: ra, GPC: gpc})
		}

	case Exit:
		g.exitSeq(in, 0, false, gpc)
	case ExitIf:
		cond := g.readInt(in.A, IntScr1, gpc)
		br := g.emit(host.Inst{Op: host.BEQZ, Ra: cond, GPC: gpc})
		g.exitSeq(in, 0, false, gpc)
		g.out[br].Imm = int32(len(g.out) - br - 1)
	case ExitInd:
		// Copy the target out of harm's way before the moves clobber
		// pinned registers.
		tl := g.a.Loc[in.A]
		var tgt uint8
		switch tl.Kind {
		case LocReg:
			tgt = uint8(tl.N)
		case LocPinned:
			g.emit(host.Inst{Op: host.MOVH, Rd: IntScr2, Ra: uint8(tl.N), GPC: gpc})
			tgt = IntScr2
		case LocSlot:
			g.emit(host.Inst{Op: host.UNSPILLI, Rd: IntScr2, Imm: int32(tl.N), GPC: gpc})
			tgt = IntScr2
		case LocImm:
			g.emit(host.Inst{Op: host.LI, Rd: IntScr2, Imm: g.constI(in.A), GPC: gpc})
			tgt = IntScr2
		default:
			g.fail("exitind target v%d has no location", in.A)
			return
		}
		g.exitSeq(in, tgt, true, gpc)

	default:
		g.fail("unhandled IR op %v", in.Op)
	}
}

// exitSeq emits the writeback moves, COMMIT, and the exit instruction.
func (g *gen) exitSeq(in *Inst, indirectReg uint8, indirect bool, gpc uint32) {
	g.parallelMoves(in.State, gpc)
	g.emit(host.Inst{Op: host.COMMIT, Target: in.ImmU, GPC: gpc})
	var idx int
	if indirect {
		idx = g.emit(host.Inst{Op: host.EXITIND, Ra: indirectReg, GPC: gpc})
	} else {
		idx = g.emit(host.Inst{Op: host.EXIT, Target: in.ImmU, GPC: gpc})
	}
	g.exits = append(g.exits, ExitSite{Idx: idx, Meta: in.Meta})
}

// move is one pending architectural writeback.
type move struct {
	dst    uint8 // pinned register
	fp     bool
	srcLoc Loc
	srcVal ValueID
}

// emitMove writes m's source, or register src when src >= 0, to m.dst.
func (g *gen) emitMove(m move, src int, gpc uint32) {
	in := host.Inst{Op: host.MOVH, Rd: m.dst, Ra: uint8(m.srcLoc.N), GPC: gpc}
	if m.fp {
		in.Op = host.FMOVH
	}
	switch {
	case src >= 0:
		in.Ra = uint8(src)
	case m.srcLoc.Kind == LocImm && !m.fp:
		in = host.Inst{Op: host.LI, Rd: m.dst, Imm: g.constI(m.srcVal), GPC: gpc}
	case m.srcLoc.Kind == LocImm:
		in = host.FLIInst(m.dst, g.constF(m.srcVal), gpc)
	case m.srcLoc.Kind == LocSlot && !m.fp:
		in = host.Inst{Op: host.UNSPILLI, Rd: m.dst, Imm: int32(m.srcLoc.N), GPC: gpc}
	case m.srcLoc.Kind == LocSlot:
		in = host.Inst{Op: host.UNSPILLF, Rd: m.dst, Imm: int32(m.srcLoc.N), GPC: gpc}
	}
	g.emit(in)
}

// parallelMoves writes the exit state into the pinned registers,
// breaking pinned→pinned cycles with the scratch register.
func (g *gen) parallelMoves(state []ArchVal, gpc uint32) {
	// readers[c][r] counts the pending moves that read pinned register r
	// of class c (0 int, 1 FP): a move may write its destination once
	// none does.
	var readers [2][64]uint8
	pending := g.pending[:0]
	for _, av := range state {
		dst, fp := PinnedHostReg(av.Arch)
		l := g.a.Loc[av.Val]
		if l.Kind == LocPinned && uint8(l.N) == dst && l.FP == fp {
			continue // value unchanged
		}
		pending = append(pending, move{dst: dst, fp: fp, srcLoc: l, srcVal: av.Val})
		if l.Kind == LocPinned {
			readers[b2u(l.FP)][l.N]++
		}
	}
	g.pending = pending[:0] // keep the buffer; the loop below consumes the slice
	// saved[c] has bit r set once pinned register r of class c was saved
	// to the class's scratch register: moves still reading r read the
	// scratch instead.
	var saved [2]uint64
	scratch := [2]int{IntScr1, FPScr1}
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); i++ {
			m := pending[i]
			if readers[b2u(m.fp)][m.dst] > 0 {
				continue
			}
			src, c := -1, b2u(m.srcLoc.FP)
			if m.srcLoc.Kind == LocPinned {
				readers[c][m.srcLoc.N]--
				if m.srcLoc.FP == m.fp && saved[c]>>uint(m.srcLoc.N)&1 != 0 {
					src = scratch[c]
				}
			}
			g.emitMove(m, src, gpc)
			pending = append(pending[:i], pending[i+1:]...)
			progress = true
			i--
		}
		if !progress {
			// Cycle among pinned→pinned moves: save one destination's
			// current value to scratch, which every other move reading
			// it must now read, and retry.
			m := pending[0]
			c := b2u(m.fp)
			g.emitMove(move{dst: uint8(scratch[c]), fp: m.fp}, int(m.dst), gpc)
			saved[c] |= 1 << m.dst
			if m.srcLoc.Kind == LocPinned {
				readers[b2u(m.srcLoc.FP)][m.srcLoc.N]--
			}
			g.emitMove(m, -1, gpc)
			pending = pending[1:]
		}
	}
}
