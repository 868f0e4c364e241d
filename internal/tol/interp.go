package tol

import (
	"darco/internal/guest"
	"darco/internal/guestvm"
)

// The interpreter runs one decoded block per dispatch, in one
// guest.RunBlock call: the block the front end's decoder returns at the
// dispatch pc (see block), decoded whole the first time and served from
// the block cache after that. Running a cached decode is sound because
// every non-terminating guest instruction advances EIP linearly
// (control transfers all end basic blocks) and because guest code is
// immutable: a store to a page a block was decoded from fails.

// interpretBB interprets the basic block at pc (IM).
func (t *TOL) interpretBB(pc uint32) (RunResult, bool, error) {
	b, err := t.block(pc)
	return t.interpretBBWith(pc, t.prof1(pc), b, err)
}

// interpretBBWith runs b, the block decoded at pc, with the profile
// entry already looked up (the dispatch loop shares its one lookup and
// its one decode). A block ending at a SYSCALL stops before it (the
// controller synchronizes there). A fault leaves the state at the
// faulting instruction (guest.RunBlock's precise-fault rule), so the
// next dispatch resumes there once the page is installed. derr is the
// error that ended b's decode early; it stands once the instructions
// before it have run, so a data page they touch is requested before the
// code page the decode stopped at, as executing instruction by
// instruction would.
func (t *TOL) interpretBBWith(pc uint32, p *profEntry, b *guestvm.Block, derr error) (RunResult, bool, error) {
	t.Stats.InterpBBs++
	p.bbFreq++
	t.LastDispatch = DispatchRecord{PC: pc, Mode: "im", BlockID: -1}
	insts, term := b.Insts, b.Term()
	syscall := term != nil && term.Op == guest.SYSCALL
	if syscall {
		insts = insts[:len(insts)-1]
	}
	n, ev, err := guest.RunBlock(&t.CPU, t.Mem, insts)
	t.Stats.GuestInsnsIM += uint64(n)
	t.ov[OvInterp] += uint64(n) * t.Cfg.Costs.InterpPerInsn
	if n > 0 {
		t.midBB = true
	}
	if err == nil {
		err = derr
	}
	switch {
	case err != nil:
		return t.pageFaultResult(err)
	case syscall:
		t.Stats.Syscalls++
		return RunResult{Event: EvSyscall}, true, nil
	case term == nil: // cut at MaxBlockInsns: the basic block goes on
		return RunResult{}, false, nil
	}
	t.Stats.GuestBBs++
	t.midBB = false
	if ev == guest.EvHalt {
		t.halt()
		return RunResult{Event: EvHalt}, true, nil
	}
	return RunResult{}, false, nil
}
