package hostvm

import (
	"fmt"
	"math"

	"darco/internal/codecache"
	"darco/internal/guestvm"
	"darco/internal/host"
)

// RunStats carries per-dispatch retirement attribution back to the TOL.
type RunStats struct {
	GuestInsnsBB uint64 // guest instructions retired from BBM blocks
	GuestInsnsSB uint64 // guest instructions retired from superblocks
	GuestBBs     uint64 // guest basic blocks retired
	HostInsnsBB  uint64 // host instructions retired in BBM blocks
	HostInsnsSB  uint64 // host instructions retired in superblocks
}

// Run executes translated code starting at block, following chains and
// IBTC hits, until control must return to the TOL. fuel bounds retired
// host instructions, checked at block boundaries (0 = unlimited).
func (vm *VM) Run(block *codecache.Block, fuel uint64) (res Result, st RunStats, err error) {
	cur := block
	start := vm.AppInsns
	for {
		vm.BlocksRun++
		cur.ExecCount++
		bb := cur.Kind == codecache.KindBB
		if bb {
			if vm.HotThreshold > 0 && cur.ExecCount == vm.HotThreshold {
				vm.hotQueue = append(vm.hotQueue, cur.Entry)
			}
			// Software execution-frequency counter embedded in the
			// translated basic block.
			vm.chargeSynthetic(vm.Cfg.ProfileCost)
		}
		// With the histogram and no Retire consumer attached, and the
		// next cut out of reach of the block, the block runs on the bare
		// loop and its retirements go to its tally.
		var t *codecache.Tally
		if m := vm.Mix; m != nil && vm.Retire == nil && m.CutAt-vm.AppInsns > uint64(len(cur.Code)) {
			t = vm.tallied(cur)
		}
		before := vm.AppInsns
		var n uint64
		res, n, err = vm.runBlock(cur, t)
		vm.AppInsns += n
		if t != nil {
			// An exit and a failed assert leave the fall-through path.
			t.Leave(n, err == nil && res.Kind <= ExitAssertFail)
		}
		if bb {
			st.HostInsnsBB += vm.AppInsns - before
		} else {
			st.HostInsnsSB += vm.AppInsns - before
		}
		if err != nil || res.Kind > ExitIndirect {
			break // an error or a rollback: no exit was taken
		}
		exit := cur.Exit(res.ExitIdx)
		if exit == nil {
			err = fmt.Errorf("hostvm: block %d left through untabled exit %d", cur.ID, res.ExitIdx)
			break
		}
		exit.Count++
		st.GuestBBs += uint64(exit.Info.GuestBBs)
		if bb {
			st.GuestInsnsBB += uint64(exit.Info.GuestInsns)
			// Software edge counter bump.
			vm.chargeSynthetic(vm.Cfg.ProfileCost)
		} else {
			st.GuestInsnsSB += uint64(exit.Info.GuestInsns)
		}
		// A software profiling counter crossing the hot threshold
		// branches back into the TOL for promotion, ending the
		// excursion like the real embedded counter check would.
		stop := len(vm.hotQueue) > 0 || (fuel > 0 && vm.AppInsns-start >= fuel)
		var next *codecache.Block
		if res.Kind == ExitToTOL {
			// Follow a chain installed by a previous dispatch.
			if next = exit.Next; next == nil {
				break
			}
			vm.ChainFollows++
			if stop {
				res.NextPC = next.Entry
			}
		} else {
			ok := false
			if vm.IBTC != nil {
				next, ok = vm.IBTC(res.NextPC)
			}
			if !ok {
				vm.IBTCMisses++
				break
			}
			vm.IBTCHits++
			vm.chargeSynthetic(vm.Cfg.IBTCCost)
		}
		if stop {
			break
		}
		cur = next
	}
	if len(vm.pending) > 0 {
		vm.fold()
	}
	return res, st, err
}

// runBlock executes one block body from its first instruction to an
// exit, assert failure, speculation failure, or page fault. It returns
// the retirements it has not added to vm.AppInsns, for Run to add. With
// a tally, the block runs as if nothing were attached and its taken
// branches go to the tally instead.
func (vm *VM) runBlock(b *codecache.Block, t *codecache.Tally) (Result, uint64, error) {
	code := b.Code
	r := &vm.Regs
	// One flag covers both consumers, so with nothing attached the
	// retirement fast path stays a single predictable branch per
	// instruction. Hoisting it is safe: nothing can attach mid-block
	// unless a consumer's callback runs, and then the flag is already
	// set; the fields themselves are re-read under it. A tallied block
	// runs unobserved.
	observed := t == nil && (vm.Retire != nil || vm.Mix != nil)
	// Every instruction that reaches the switch retires: into vm.AppInsns
	// when a consumer can look at it, into a local otherwise.
	var n uint64
	i := 0
	for i < len(code) {
		in := &code[i]
		if !observed {
			n++
		} else {
			vm.AppInsns++
			// A branch is observed in its case, where the outcome is known.
			if !in.Op.IsBranch() {
				// A histogram-only block gets here only when the next
				// cut lies within len(Code) retirements (Run tallies it
				// otherwise), so this arm counts that block's
				// retirements before the cut inline; observe handles
				// the cut itself and every Retire consumer. The copy of
				// observe's histogram line predates the tally and has
				// not been measured against it since.
				if m := vm.Mix; m != nil && vm.Retire == nil && vm.AppInsns != m.CutAt {
					m.Ops[in.Op]++
				} else {
					vm.observe(in, blockPC(b.ID, i), false, 0)
				}
			}
		}
		switch in.Op {
		case host.NOPH:
		case host.LI:
			r.R[in.Rd] = uint32(in.Imm)
		case host.MOVH:
			r.R[in.Rd] = r.R[in.Ra]
		case host.ADD:
			r.R[in.Rd] = r.R[in.Ra] + r.R[in.Rb]
		case host.ADDI:
			r.R[in.Rd] = r.R[in.Ra] + uint32(in.Imm)
		case host.SUB:
			r.R[in.Rd] = r.R[in.Ra] - r.R[in.Rb]
		case host.MUL:
			r.R[in.Rd] = uint32(int32(r.R[in.Ra]) * int32(r.R[in.Rb]))
		case host.DIV:
			den := int32(r.R[in.Rb])
			num := int32(r.R[in.Ra])
			switch {
			case den == 0:
				r.R[in.Rd] = 0xFFFFFFFF
			case num == math.MinInt32 && den == -1:
				r.R[in.Rd] = 0x80000000
			default:
				r.R[in.Rd] = uint32(num / den)
			}
		case host.REM:
			den := int32(r.R[in.Rb])
			num := int32(r.R[in.Ra])
			switch {
			case den == 0:
				r.R[in.Rd] = r.R[in.Ra]
			case num == math.MinInt32 && den == -1:
				r.R[in.Rd] = 0
			default:
				r.R[in.Rd] = uint32(num % den)
			}
		case host.AND:
			r.R[in.Rd] = r.R[in.Ra] & r.R[in.Rb]
		case host.ANDI:
			r.R[in.Rd] = r.R[in.Ra] & uint32(in.Imm)
		case host.OR:
			r.R[in.Rd] = r.R[in.Ra] | r.R[in.Rb]
		case host.ORI:
			r.R[in.Rd] = r.R[in.Ra] | uint32(in.Imm)
		case host.XOR:
			r.R[in.Rd] = r.R[in.Ra] ^ r.R[in.Rb]
		case host.XORI:
			r.R[in.Rd] = r.R[in.Ra] ^ uint32(in.Imm)
		case host.SHL:
			r.R[in.Rd] = r.R[in.Ra] << (r.R[in.Rb] & 31)
		case host.SHLI:
			r.R[in.Rd] = r.R[in.Ra] << (uint32(in.Imm) & 31)
		case host.SHR:
			r.R[in.Rd] = r.R[in.Ra] >> (r.R[in.Rb] & 31)
		case host.SHRI:
			r.R[in.Rd] = r.R[in.Ra] >> (uint32(in.Imm) & 31)
		case host.SAR:
			r.R[in.Rd] = uint32(int32(r.R[in.Ra]) >> (r.R[in.Rb] & 31))
		case host.SARI:
			r.R[in.Rd] = uint32(int32(r.R[in.Ra]) >> (uint32(in.Imm) & 31))
		case host.MULH:
			r.R[in.Rd] = uint32(uint64(int64(int32(r.R[in.Ra]))*int64(int32(r.R[in.Rb]))) >> 32)
		case host.SPILLI:
			vm.spillI[in.Imm] = r.R[in.Rd]
		case host.UNSPILLI:
			r.R[in.Rd] = vm.spillI[in.Imm]
		case host.SPILLF:
			vm.spillF[in.Imm] = r.F[in.Rd]
		case host.UNSPILLF:
			r.F[in.Rd] = vm.spillF[in.Imm]
		case host.SLT:
			r.R[in.Rd] = b2u(int32(r.R[in.Ra]) < int32(r.R[in.Rb]))
		case host.SLTU:
			r.R[in.Rd] = b2u(r.R[in.Ra] < r.R[in.Rb])
		case host.SEQ:
			r.R[in.Rd] = b2u(r.R[in.Ra] == r.R[in.Rb])
		case host.SNE:
			r.R[in.Rd] = b2u(r.R[in.Ra] != r.R[in.Rb])

		case host.LD, host.LDB:
			width := uint8(4)
			if in.Op == host.LDB {
				width = 1
			}
			addr := r.R[in.Ra] + uint32(in.Imm)
			v, err := vm.bufLoad(addr, width)
			if err != nil {
				return vm.memFail(b, n, err)
			}
			if in.Spec && !vm.recordSpecLoad(addr, width) {
				return vm.specFail(b), n, nil
			}
			r.R[in.Rd] = uint32(v)
		case host.FLDH:
			addr := r.R[in.Ra] + uint32(in.Imm)
			v, err := vm.bufLoad(addr, 8)
			if err != nil {
				return vm.memFail(b, n, err)
			}
			if in.Spec && !vm.recordSpecLoad(addr, 8) {
				return vm.specFail(b), n, nil
			}
			r.F[in.Rd] = math.Float64frombits(v)

		case host.ST, host.STB:
			width := uint8(4)
			if in.Op == host.STB {
				width = 1
			}
			addr := r.R[in.Ra] + uint32(in.Imm)
			if vm.probeStore(addr, width) {
				return vm.specFail(b), n, nil
			}
			if err := vm.probeResident(addr, width); err != nil {
				return vm.memFail(b, n, err)
			}
			vm.stbuf = append(vm.stbuf, pendingStore{addr: addr, width: width, val: uint64(r.R[in.Rd])})
		case host.FSTH:
			addr := r.R[in.Ra] + uint32(in.Imm)
			if vm.probeStore(addr, 8) {
				return vm.specFail(b), n, nil
			}
			if err := vm.probeResident(addr, 8); err != nil {
				return vm.memFail(b, n, err)
			}
			vm.stbuf = append(vm.stbuf, pendingStore{addr: addr, width: 8, val: math.Float64bits(r.F[in.Rd])})

		case host.BEQZ:
			taken := r.R[in.Ra] == 0
			if observed {
				vm.observe(in, blockPC(b.ID, i), taken, blockPC(b.ID, i+1+int(in.Imm)))
			}
			if taken {
				if t != nil {
					t.Jump(i, i+1+int(in.Imm), n)
				}
				i += 1 + int(in.Imm)
				continue
			}

		case host.EXIT:
			if observed {
				vm.observe(in, blockPC(b.ID, i), true, TOLDispatchPC)
			}
			return Result{Kind: ExitToTOL, NextPC: in.Target, Block: b, ExitIdx: i}, n, nil
		case host.CHAINED:
			if observed {
				vm.observe(in, blockPC(b.ID, i), true, blockPC(b.Exit(i).Next.ID, 0))
			}
			return Result{Kind: ExitToTOL, NextPC: in.Target, Block: b, ExitIdx: i}, n, nil
		case host.EXITIND:
			next := r.R[in.Ra]
			// Indirect targets get a synthetic address derived from the
			// guest PC so the BTB sees stable per-target addresses.
			if observed {
				vm.observe(in, blockPC(b.ID, i), true, 0x8000_0000|next)
			}
			return Result{Kind: ExitIndirect, NextPC: next, Block: b, ExitIdx: i}, n, nil

		case host.ASSERTH:
			failed := r.R[in.Ra] == 0
			// A failing assert behaves like a mispredicted branch that
			// flushes to the TOL's recovery path.
			if observed {
				vm.observe(in, blockPC(b.ID, i), failed, TOLDispatchPC)
			}
			if failed {
				vm.AssertFails++
				b.AssertFails++
				vm.rollback()
				return Result{Kind: ExitAssertFail, NextPC: in.Target, Block: b, ExitIdx: i}, n, nil
			}
		case host.CHKPT:
			vm.checkpoint()
		case host.COMMIT:
			if err := vm.commit(); err != nil {
				return Result{}, n, fmt.Errorf("hostvm: commit failed: %w", err)
			}

		case host.FLI:
			r.F[in.Rd] = in.F64()
		case host.FMOVH:
			r.F[in.Rd] = r.F[in.Ra]
		case host.FADDH:
			r.F[in.Rd] = r.F[in.Ra] + r.F[in.Rb]
		case host.FSUBH:
			r.F[in.Rd] = r.F[in.Ra] - r.F[in.Rb]
		case host.FMULH:
			r.F[in.Rd] = r.F[in.Ra] * r.F[in.Rb]
		case host.FDIVH:
			r.F[in.Rd] = r.F[in.Ra] / r.F[in.Rb]
		case host.FSQRTH:
			r.F[in.Rd] = math.Sqrt(r.F[in.Ra])
		case host.FABSH:
			r.F[in.Rd] = math.Abs(r.F[in.Ra])
		case host.FNEGH:
			r.F[in.Rd] = -r.F[in.Ra]
		case host.FCVTI:
			r.R[in.Rd] = uint32(truncF64(r.F[in.Ra]))
		case host.FCVTF:
			r.F[in.Rd] = float64(int32(r.R[in.Ra]))
		case host.FSLT:
			r.R[in.Rd] = b2u(r.F[in.Ra] < r.F[in.Rb])
		case host.FSEQ:
			r.R[in.Rd] = b2u(r.F[in.Ra] == r.F[in.Rb])
		case host.FUNORD:
			r.R[in.Rd] = b2u(math.IsNaN(r.F[in.Ra]) || math.IsNaN(r.F[in.Rb]))

		default:
			return Result{}, n, fmt.Errorf("hostvm: illegal host op %v in block %d at %d", in.Op, b.ID, i)
		}
		i++
	}
	return Result{}, n, fmt.Errorf("hostvm: block %d fell off the end (guest entry %#x)", b.ID, b.Entry)
}

func (vm *VM) specFail(b *codecache.Block) Result {
	vm.MemSpecFails++
	b.SpecFails++
	vm.rollback()
	return Result{Kind: ExitMemSpecFail, NextPC: b.Entry, Block: b}
}

// probeResident checks the first and last byte of a store about to be
// buffered by the memory's store rule, so COMMIT cannot fail: a page
// fault or a store to guest code ends the block at the store.
func (vm *VM) probeResident(addr uint32, width uint8) error {
	err := vm.Mem.StoreCheck(addr)
	if last := addr + uint32(width) - 1; err == nil && last>>guestvm.PageShift != addr>>guestvm.PageShift {
		err = vm.Mem.StoreCheck(last)
	}
	return err
}

// memFail ends the block on a failed guest memory access: a page fault
// and a partial store-to-load forward roll back to the checkpoint,
// anything else (a store to guest code, an emulator error) ends the
// run. n passes through to the caller.
func (vm *VM) memFail(b *codecache.Block, n uint64, err error) (Result, uint64, error) {
	if pf, ok := err.(*guestvm.PageFaultError); ok {
		vm.rollback()
		return Result{Kind: ExitPageFault, NextPC: b.Entry, FaultAddr: pf.Addr, Block: b}, n, nil
	}
	if err == errPartialForward {
		return vm.specFail(b), n, nil
	}
	return Result{}, n, err
}
