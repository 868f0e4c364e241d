package tol

import (
	"darco/internal/guest"
	"darco/internal/guestvm"
)

// The interpreter fetches whole basic blocks at once: the first
// interpretation of a block decodes it instruction by instruction (and
// records it), every later interpretation replays the cached decode with
// zero fetch work. Replay is sound because every non-terminating guest
// instruction advances EIP linearly (control transfers all end basic
// blocks) and because InstallPage drops cached blocks whose code page
// changed.

// maxInterpCacheInsns bounds a cached interpreter block; longer blocks
// execute fine but are not cached.
const maxInterpCacheInsns = 4096

// interpBlock is one cached decoded basic block: the executable body
// including the terminator, except for blocks ending at a SYSCALL,
// which stop before it (the controller synchronizes there).
type interpBlock struct {
	insts       []guest.Inst
	endsSyscall bool
	firstPN     uint32 // first guest page the block's bytes touch
	lastPN      uint32 // last guest page the block's bytes touch
}

// interpretBB interprets one basic block starting at pc (IM).
func (t *TOL) interpretBB(pc uint32) (RunResult, bool, error) {
	return t.interpretBBWith(pc, t.prof1(pc))
}

// interpretBBWith is interpretBB with the profile entry already looked
// up (the dispatch loop shares its single per-dispatch lookup).
func (t *TOL) interpretBBWith(pc uint32, p *profEntry) (RunResult, bool, error) {
	t.Stats.InterpBBs++
	p.bbFreq++
	t.LastDispatch = DispatchRecord{PC: pc, Mode: "im", BlockID: -1}
	if ib := t.iblocks[pc]; ib != nil {
		return t.runInterpBlock(ib)
	}
	return t.interpretBBRecord(pc)
}

// runInterpBlock replays a cached decoded basic block. A fault leaves
// the state at the faulting instruction (guest.RunBlock's precise-fault
// rule), so the next dispatch resumes there once the page is installed.
func (t *TOL) runInterpBlock(ib *interpBlock) (RunResult, bool, error) {
	n, ev, err := guest.RunBlock(&t.CPU, t.Mem, ib.insts)
	t.Stats.GuestInsnsIM += uint64(n)
	t.ov[OvInterp] += uint64(n) * t.Cfg.Costs.InterpPerInsn
	if n > 0 {
		t.midBB = true
	}
	if err != nil {
		return t.pageFaultResult(err)
	}
	if ib.endsSyscall {
		// The block ends at a system call: stop before executing it.
		t.Stats.Syscalls++
		return RunResult{Event: EvSyscall}, true, nil
	}
	return t.endInterpBB(ev)
}

// endInterpBB retires an interpreted block's terminator.
func (t *TOL) endInterpBB(ev guest.Event) (RunResult, bool, error) {
	t.Stats.GuestBBs++
	t.midBB = false
	if ev == guest.EvHalt {
		t.halted = true
		return RunResult{Event: EvHalt}, true, nil
	}
	return RunResult{}, false, nil
}

// interpretBBRecord decodes and executes a block not yet cached,
// recording the decode for replay. A block whose decode or execution
// faults mid-way is not cached; re-interpretation after the page
// transfer records it then.
func (t *TOL) interpretBBRecord(pc uint32) (RunResult, bool, error) {
	t.irec = t.irec[:0]
	for {
		fetchPC := t.CPU.EIP
		in, err := t.Fetch(fetchPC)
		if err != nil {
			return t.pageFaultResult(err)
		}
		if in.Op == guest.SYSCALL {
			t.cacheInterpBlock(pc, fetchPC+uint32(in.Len()), t.irec, true)
			t.Stats.Syscalls++
			return RunResult{Event: EvSyscall}, true, nil
		}
		t.irec = append(t.irec, in)
		ev, err := guest.Step(&t.CPU, t.Mem, &in)
		if err != nil {
			return t.pageFaultResult(err)
		}
		t.Stats.GuestInsnsIM++
		t.ov[OvInterp] += t.Cfg.Costs.InterpPerInsn
		t.midBB = true
		if in.Op.EndsBasicBlock() {
			t.cacheInterpBlock(pc, fetchPC+uint32(in.Len()), t.irec, false)
			return t.endInterpBB(ev)
		}
	}
}

// cacheInterpBlock installs a copy of a fully decoded block, unless it is
// too long, and indexes it under every guest page its bytes touch, so
// InstallPage can drop it.
func (t *TOL) cacheInterpBlock(entry, endPC uint32, insts []guest.Inst, endsSyscall bool) {
	if len(insts) > maxInterpCacheInsns {
		return
	}
	ib := &interpBlock{
		insts:       append([]guest.Inst(nil), insts...),
		endsSyscall: endsSyscall,
		firstPN:     entry >> guestvm.PageShift,
		lastPN:      (endPC - 1) >> guestvm.PageShift,
	}
	t.iblocks[entry] = ib
	for pn := ib.firstPN; pn <= ib.lastPN; pn++ {
		t.iblocksByPage[pn] = append(t.iblocksByPage[pn], entry)
	}
}

// dropInterpBlocks invalidates every cached interpreter block whose
// bytes touch page pn.
func (t *TOL) dropInterpBlocks(pn uint32) {
	entries := t.iblocksByPage[pn]
	if entries == nil {
		return
	}
	delete(t.iblocksByPage, pn)
	for _, entry := range entries {
		ib := t.iblocks[entry]
		if ib == nil || pn < ib.firstPN || pn > ib.lastPN {
			continue
		}
		delete(t.iblocks, entry)
	}
}
