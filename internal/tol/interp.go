package tol

import (
	"darco/internal/guest"
	"darco/internal/guestvm"
)

// The interpreter fetches whole basic blocks at once: the first
// interpretation of a block decodes it instruction by instruction (and
// records it into the front end's block cache), every later
// interpretation replays the cached decode with zero fetch work. Replay
// is sound because every non-terminating guest instruction advances EIP
// linearly (control transfers all end basic blocks) and because
// InstallPage drops cached blocks whose bytes it rewrote.

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
	if b := t.dec.Block(nil, pc); b != nil {
		return t.replayBlock(b)
	}
	return t.interpretBBRecord(pc)
}

// replayBlock runs a cached decoded basic block. A block ending at a
// SYSCALL stops before it (the controller synchronizes there). A fault
// leaves the state at the faulting instruction (guest.RunBlock's
// precise-fault rule), so the next dispatch resumes there once the page
// is installed.
func (t *TOL) replayBlock(b *guestvm.Block) (RunResult, bool, error) {
	insts := b.Insts
	syscall := insts[len(insts)-1].Op == guest.SYSCALL
	if syscall {
		insts = insts[:len(insts)-1]
	}
	n, ev, err := guest.RunBlock(&t.CPU, t.Mem, insts)
	t.Stats.GuestInsnsIM += uint64(n)
	t.ov[OvInterp] += uint64(n) * t.Cfg.Costs.InterpPerInsn
	if n > 0 {
		t.midBB = true
	}
	if err != nil {
		return t.pageFaultResult(err)
	}
	if syscall {
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
// recording the decode and handing it to the block cache once the
// terminator is reached (a SYSCALL is recorded, not executed). A block
// whose decode or execution faults mid-way is not cached;
// re-interpretation after the page transfer records it then.
func (t *TOL) interpretBBRecord(pc uint32) (RunResult, bool, error) {
	t.irec = t.irec[:0]
	for {
		fetchPC := t.CPU.EIP
		in, err := t.Fetch(fetchPC)
		if err != nil {
			return t.pageFaultResult(err)
		}
		t.irec = append(t.irec, in)
		if in.Op == guest.SYSCALL {
			t.dec.AddBlock(pc, fetchPC+uint32(in.Size), t.irec)
			t.Stats.Syscalls++
			return RunResult{Event: EvSyscall}, true, nil
		}
		ev, err := guest.Step(&t.CPU, t.Mem, &in)
		if err != nil {
			return t.pageFaultResult(err)
		}
		t.Stats.GuestInsnsIM++
		t.ov[OvInterp] += t.Cfg.Costs.InterpPerInsn
		t.midBB = true
		if in.Op.EndsBasicBlock() {
			t.dec.AddBlock(pc, fetchPC+uint32(in.Size), t.irec)
			return t.endInterpBB(ev)
		}
	}
}
