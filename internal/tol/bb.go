package tol

import (
	"fmt"

	"darco/internal/codecache"
	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/host"
	"darco/internal/ir"
)

// bbInfo is one decoded guest basic block as a translation unit. Its
// body is a view of the front end's decoded block.
type bbInfo struct {
	entry  uint32
	insts  []guest.Inst // body, excluding the terminator
	term   guest.Inst   // terminating instruction
	termPC uint32
	nextPC uint32 // fall-through PC after the terminator
}

// bbOf cuts b into body and terminator. ok is false when b has no
// terminator: the decoder cut it at guestvm.MaxBlockInsns, or a fetch
// error ended it.
func bbOf(b *guestvm.Block) (bb bbInfo, ok bool) {
	term := b.Term()
	if term == nil {
		return bbInfo{}, false
	}
	n := len(b.Insts) - 1
	return bbInfo{entry: b.PC, insts: b.Insts[:n:n], term: *term,
		termPC: b.End - uint32(term.Size), nextPC: b.End}, true
}

// bbAt decodes the basic block at pc through the front end.
func (t *TOL) bbAt(pc uint32) (bbInfo, error) {
	b, err := t.block(pc)
	if bb, ok := bbOf(b); ok {
		return bb, nil
	}
	return bbInfo{}, noBB(pc, err)
}

// noBB is the error for the block at pc that bbOf cannot cut: derr, the
// error that ended its decode, or, for a block cut at
// guestvm.MaxBlockInsns, one saying so.
func noBB(pc uint32, derr error) error {
	if derr != nil {
		return derr
	}
	return fmt.Errorf("tol: basic block at %#x has no terminator within %d instructions", pc, guestvm.MaxBlockInsns)
}

// staticLen reports the number of static guest instructions including
// the terminator when it is translatable.
func (bb *bbInfo) staticLen() int {
	n := len(bb.insts)
	if translatable(bb.term.Op) {
		n++
	}
	return n
}

// bbRegion translates a basic block, terminator included, into the
// scratch region: the one front half of every BB translation, live or
// replayed by the debug API.
func (t *TOL) bbRegion(bb *bbInfo) (*xlate, error) {
	x := t.scratch.newXlate(bb.entry, false, t.Cfg.EagerFlags)
	if err := x.translateBody(bb); err != nil {
		return nil, err
	}
	return x, x.translateTerminator(bb)
}

// translateBody translates the straight-line body of a basic block.
func (x *xlate) translateBody(bb *bbInfo) error {
	pc := bb.entry
	for i := range bb.insts {
		if err := x.inst(pc, &bb.insts[i]); err != nil {
			return err
		}
		pc += uint32(bb.insts[i].Size)
	}
	return nil
}

// translateTerminator lowers a basic block terminator into region exits,
// the way both BBM blocks and the final block of a superblock end.
func (x *xlate) translateTerminator(bb *bbInfo) error {
	t := &bb.term
	x.gpc = bb.termPC
	d := t.Op.Desc()
	switch {
	case d.IsCond:
		cond := x.cond(t.Op)
		x.guestInsns++
		x.guestBBs++
		x.emitExitIf(cond, t.Target(bb.termPC), true)
		x.emitExit(bb.nextPC, false)
	case t.Op == guest.JMP:
		x.guestInsns++
		x.guestBBs++
		x.emitExit(t.Target(bb.termPC), false)
	case t.Op == guest.JMPr:
		addr := x.getGPR(t.R1)
		x.guestInsns++
		x.guestBBs++
		x.emitExitInd(addr)
	case t.Op == guest.CALL:
		x.pushValue(x.constI(bb.nextPC))
		x.guestInsns++
		x.guestBBs++
		x.emitExit(t.Target(bb.termPC), false)
	case t.Op == guest.CALLr:
		x.pushValue(x.constI(bb.nextPC))
		addr := x.getGPR(t.R1)
		x.guestInsns++
		x.guestBBs++
		x.emitExitInd(addr)
	case t.Op == guest.RET:
		sp := x.getGPR(guest.ESP)
		addr := x.emit(ir.Inst{Op: ir.Ld32, Dst: -1, A: sp})
		x.setGPR(guest.ESP, x.op2(ir.Add, sp, x.constI(4)))
		x.guestInsns++
		x.guestBBs++
		x.emitExitInd(addr)
	default:
		// Untranslatable terminator (SYSCALL, HALT, MOVS, STOS): leave
		// to the software layer at its PC. The basic block has not
		// finished — the interpreter executes the terminator and
		// retires the block.
		x.emitExit(bb.termPC, false)
	}
	return nil
}

func (x *xlate) pushValue(v ir.ValueID) {
	sp := x.op2(ir.Sub, x.getGPR(guest.ESP), x.constI(4))
	x.emit(ir.Inst{Op: ir.St32, A: sp, B: v})
	x.setGPR(guest.ESP, sp)
}

// OptLevel selects how much of the optimization pipeline runs; the
// debug toolchain replays translations at increasing levels to pinpoint
// the pass a divergence first appears in.
type OptLevel int

// Optimization levels, cumulative. The zero value selects LevelFull.
const (
	LevelDefault OptLevel = iota // alias for LevelFull
	LevelNone                    // straight translation, no passes
	LevelForward                 // + constant folding/propagation, copy propagation
	LevelCSE                     // + common subexpression elimination
	LevelDCE                     // + dead code elimination
	LevelMem                     // + redundant load elim, store forwarding, dead stores
	LevelSched                   // + DDG construction and list scheduling
	LevelFull                    // everything (speculative reordering per maxSpec)
)

func (l OptLevel) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelForward:
		return "forward"
	case LevelCSE:
		return "cse"
	case LevelDCE:
		return "dce"
	case LevelMem:
		return "memopt"
	case LevelSched:
		return "sched"
	}
	return "full"
}

// lowerRegion runs the mode-appropriate optimization pipeline, cut at
// level, and generates the host code.
func lowerRegion(r *ir.Region, superblock bool, maxSpec int, level OptLevel, mutate func(*ir.Region)) (*ir.GenResult, ir.SchedStats, error) {
	var sched ir.SchedStats
	if level >= LevelForward {
		r.ForwardPass()
	}
	if superblock && level >= LevelCSE {
		r.CSE()
	}
	if level >= LevelDCE {
		r.DCE()
	}
	if superblock && level >= LevelMem {
		r.MemOpt()
	}
	if superblock && level >= LevelSched {
		if level < LevelFull {
			maxSpec = 0
		}
		sched = r.Schedule(r.BuildDDG(), maxSpec)
	}
	if mutate != nil {
		mutate(r)
	}
	gen, err := r.Generate(r.Allocate())
	return gen, sched, err
}

// translateBB builds a BBM block for b, the block decoded at its entry.
// It returns nil (no error) when the block is not translated: it is
// only an untranslatable instruction (a system call or string
// instruction, say), or the decoder cut it at guestvm.MaxBlockInsns. A
// block a fetch error ended early returns derr, that error.
func (t *TOL) translateBB(b *guestvm.Block, derr error) (*codecache.Block, error) {
	bb, ok := bbOf(b)
	if !ok || len(bb.insts) == 0 && !translatable(bb.term.Op) {
		return nil, derr
	}
	x, err := t.bbRegion(&bb)
	if err != nil {
		return nil, err
	}
	return t.lowerBB(x, &bb, LevelDCE)
}

// lowerBB runs the BBM pipeline, cut at level, on a translated basic
// block and builds its code cache block.
func (t *TOL) lowerBB(x *xlate, bb *bbInfo, level OptLevel) (*codecache.Block, error) {
	gen, _, err := lowerRegion(x.r, false, 0, level, t.Cfg.MutateRegion)
	if err != nil {
		return nil, err
	}
	return ownResult(&codecache.Block{
		Entry:      bb.entry,
		Kind:       codecache.KindBB,
		GuestInsns: bb.staticLen(),
		BBs:        []uint32{bb.entry},
	}, gen), nil
}

// ownResult gives the block its own exact-size copy of the generated
// code and its exit table: the GenResult is scratch the next
// translation overwrites, and chaining patches a block's code in place.
func ownResult(blk *codecache.Block, gen *ir.GenResult) *codecache.Block {
	blk.Code = make([]host.Inst, len(gen.Code))
	copy(blk.Code, gen.Code)
	blk.Exits = make([]codecache.Exit, len(gen.Exits))
	for i, e := range gen.Exits {
		blk.Exits[i] = codecache.Exit{Idx: e.Idx, Info: codecache.ExitInfo(e.Meta)}
	}
	return blk
}
