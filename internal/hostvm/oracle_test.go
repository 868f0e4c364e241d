package hostvm

import (
	"fmt"
	"math"

	"darco/internal/codecache"
	"darco/internal/guestvm"
	"darco/internal/host"
)

// The block runner as it stood before the exit table: Run, runBlock,
// checkpoint, rollback and the retirement bookkeeping of the parent
// commit, with the exit accounting in maps keyed by instruction index
// (Block.ExitMeta, Block.ExitCounts and Block.CountExit there), chains
// resolved through VM.Resolve from the block id each CHAINED instruction
// carried (Inst.Link there, kept in a map here that the harness fills
// as it chains) and the whole register file copied at every checkpoint.
// It is the executable specification the generator in
// differential_test.go holds the table-driven runner to.
//
// oracleVM embeds the VM under test's type for its state and for the
// helpers the rewrite left alone (bufLoad, commit, observe, the alias
// table, chargeSynthetic); the methods below shadow the rewritten ones,
// so the parent's bodies read here as they did there, less the arms of
// the opcodes the host ISA no longer defines.
type oracleVM struct {
	*VM
	exitMeta   map[*codecache.Block]map[int]codecache.ExitInfo // ExitMeta
	exitCounts map[*codecache.Block]map[int]uint64             // ExitCounts
	resolve    func(id int) (*codecache.Block, bool)           // Resolve
	links      map[*codecache.Block]map[int]int                // Inst.Link, by block and instruction index
}

// link is the parent's Inst.Link of instruction instIdx of b.
func (vm *oracleVM) link(b *codecache.Block, instIdx int) int { return vm.links[b][instIdx] }

// countExit is the parent's Block.CountExit.
func (vm *oracleVM) countExit(b *codecache.Block, instIdx int) {
	if vm.exitCounts[b] == nil {
		vm.exitCounts[b] = make(map[int]uint64)
	}
	vm.exitCounts[b][instIdx]++
}

// spill runs the spill instruction at b.Code[i]. It checks and grows
// the banks itself, so the runner's ReserveSpill is held to the reference
// and not to its own bound.
func (vm *oracleVM) spill(b *codecache.Block, i int) error {
	in := &b.Code[i]
	slot := int(in.Imm)
	if slot < 0 || slot >= MaxSpillSlots {
		return fmt.Errorf("oracle: %v in block %d names spill slot %d, outside [0, %d)", in.Op, b.ID, slot, MaxSpillSlots)
	}
	if in.Op == host.SPILLI || in.Op == host.UNSPILLI {
		for len(vm.spillI) <= slot {
			vm.spillI = append(vm.spillI, 0)
		}
	} else {
		for len(vm.spillF) <= slot {
			vm.spillF = append(vm.spillF, 0)
		}
	}
	r := &vm.Regs
	switch in.Op {
	case host.SPILLI:
		vm.spillI[in.Imm] = r.R[in.Rd]
	case host.UNSPILLI:
		r.R[in.Rd] = vm.spillI[in.Imm]
	case host.SPILLF:
		vm.spillF[in.Imm] = r.F[in.Rd]
	case host.UNSPILLF:
		r.F[in.Rd] = vm.spillF[in.Imm]
	}
	return nil
}

// faultAddr extracts the faulting address if err is a guest page fault.
func faultAddr(err error) (uint32, bool) {
	if pf, ok := err.(*guestvm.PageFaultError); ok {
		return pf.Addr, true
	}
	return 0, false
}

// retire accounts one retired host instruction outside runBlock's
// inlined copies of the same sequence (exits, asserts).
func (vm *oracleVM) retire(in *host.Inst, pc uint32, taken bool, target uint32) {
	vm.AppInsns++
	if vm.Retire != nil || vm.Mix != nil {
		vm.observe(in, pc, taken, target)
	}
}

// checkpoint snapshots the register file and clears speculative state.
func (vm *oracleVM) checkpoint() {
	vm.ckptRegs = vm.Regs
	vm.stbuf = vm.stbuf[:0]
	vm.alias = vm.alias[:0]
}

// rollback restores the checkpoint and discards speculative state.
func (vm *oracleVM) rollback() {
	vm.Regs = vm.ckptRegs
	vm.stbuf = vm.stbuf[:0]
	vm.alias = vm.alias[:0]
	vm.Rollbacks++
}

// Run executes translated code starting at block, following chains and
// IBTC hits, until control must return to the TOL. fuel bounds retired
// host instructions, checked at block boundaries (0 = unlimited).
func (vm *oracleVM) Run(block *codecache.Block, fuel uint64) (Result, RunStats, error) {
	var st RunStats
	cur := block
	start := vm.AppInsns
	for {
		vm.BlocksRun++
		cur.ExecCount++
		if cur.Kind == codecache.KindBB && vm.HotThreshold > 0 && cur.ExecCount == vm.HotThreshold {
			vm.hotQueue = append(vm.hotQueue, cur.Entry)
		}
		if cur.Kind == codecache.KindBB {
			// Software execution-frequency counter embedded in the
			// translated basic block.
			vm.chargeSynthetic(vm.Cfg.ProfileCost)
		}
		before := vm.AppInsns
		res, err := vm.runBlock(cur)
		retired := vm.AppInsns - before
		if cur.Kind == codecache.KindBB {
			st.HostInsnsBB += retired
		} else {
			st.HostInsnsSB += retired
		}
		if err != nil {
			return Result{}, st, err
		}
		// Attribute guest retirement for non-rollback exits.
		if res.Kind == ExitToTOL || res.Kind == ExitIndirect {
			if meta, ok := vm.exitMeta[cur][res.ExitIdx]; ok {
				if cur.Kind == codecache.KindBB {
					st.GuestInsnsBB += uint64(meta.GuestInsns)
				} else {
					st.GuestInsnsSB += uint64(meta.GuestInsns)
				}
				st.GuestBBs += uint64(meta.GuestBBs)
			}
			vm.countExit(cur, res.ExitIdx)
			if cur.Kind == codecache.KindBB {
				// Software edge counter bump.
				vm.chargeSynthetic(vm.Cfg.ProfileCost)
			}
		}
		// A software profiling counter crossing the hot threshold
		// branches back into the TOL for promotion, ending the
		// excursion like the real embedded counter check would.
		stop := len(vm.hotQueue) > 0 || (fuel > 0 && vm.AppInsns-start >= fuel)
		switch res.Kind {
		case ExitToTOL:
			// Follow a chain installed by a previous dispatch.
			in := &cur.Code[res.ExitIdx]
			if in.Op == host.CHAINED {
				if next, ok := vm.resolve(vm.link(cur, res.ExitIdx)); ok {
					vm.ChainFollows++
					if stop {
						res.NextPC = next.Entry
						return res, st, nil
					}
					cur = next
					continue
				}
			}
			return res, st, nil
		case ExitIndirect:
			if vm.IBTC != nil {
				if next, ok := vm.IBTC(res.NextPC); ok {
					vm.IBTCHits++
					vm.chargeSynthetic(vm.Cfg.IBTCCost)
					if stop {
						return res, st, nil
					}
					cur = next
					continue
				}
			}
			vm.IBTCMisses++
			return res, st, nil
		default:
			return res, st, nil
		}
	}
}

// runBlock executes one block body from its first instruction to an
// exit, assert failure, speculation failure, or page fault.
func (vm *oracleVM) runBlock(b *codecache.Block) (Result, error) {
	code := b.Code
	r := &vm.Regs
	// One flag covers both consumers, so with nothing attached the
	// retirement fast path stays a single predictable branch per
	// instruction. Hoisting it is safe: nothing can attach mid-block
	// unless a consumer's callback runs, and then the flag is already
	// set; the fields themselves are re-read under it.
	observed := vm.Retire != nil || vm.Mix != nil
	i := 0
	for i < len(code) {
		in := &code[i]
		if host.Descs[in.Op].Class != host.ClassBranch {
			vm.AppInsns++
			if observed {
				// Nine retirements in ten pass through here, so the
				// common subscribed case — histogram only, not at the
				// cut — is counted inline; observe handles the rest.
				// The copy earns its place: calling observe here
				// instead costs a default job 15% (served_job_s on
				// tiers) and a windowed session 23% (fp-steady).
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
		case host.SPILLI, host.UNSPILLI, host.SPILLF, host.UNSPILLF:
			if err := vm.spill(b, i); err != nil {
				return Result{}, err
			}
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
				if fa, isPF := faultAddr(err); isPF {
					return vm.fault(b, fa), nil
				}
				if err == errPartialForward {
					return vm.specFail(b), nil
				}
				return Result{}, err
			}
			if in.Spec && !vm.recordSpecLoad(addr, width) {
				return vm.specFail(b), nil
			}
			r.R[in.Rd] = uint32(v)
		case host.FLDH:
			addr := r.R[in.Ra] + uint32(in.Imm)
			v, err := vm.bufLoad(addr, 8)
			if err != nil {
				if fa, isPF := faultAddr(err); isPF {
					return vm.fault(b, fa), nil
				}
				if err == errPartialForward {
					return vm.specFail(b), nil
				}
				return Result{}, err
			}
			if in.Spec && !vm.recordSpecLoad(addr, 8) {
				return vm.specFail(b), nil
			}
			r.F[in.Rd] = math.Float64frombits(v)

		case host.ST, host.STB:
			width := uint8(4)
			if in.Op == host.STB {
				width = 1
			}
			addr := r.R[in.Ra] + uint32(in.Imm)
			if vm.probeStore(addr, width) {
				return vm.specFail(b), nil
			}
			// Probe residency so COMMIT cannot fault.
			if _, err := vm.Mem.Load8(addr); err != nil {
				if fa, isPF := faultAddr(err); isPF {
					return vm.fault(b, fa), nil
				}
				return Result{}, err
			}
			if width == 4 && addr&(0xFFF) > 0xFFC {
				if _, err := vm.Mem.Load8(addr + 3); err != nil {
					if fa, isPF := faultAddr(err); isPF {
						return vm.fault(b, fa), nil
					}
					return Result{}, err
				}
			}
			vm.stbuf = append(vm.stbuf, pendingStore{addr: addr, width: width, val: uint64(r.R[in.Rd])})
		case host.FSTH:
			addr := r.R[in.Ra] + uint32(in.Imm)
			if vm.probeStore(addr, 8) {
				return vm.specFail(b), nil
			}
			if _, err := vm.Mem.Load8(addr); err != nil {
				if fa, isPF := faultAddr(err); isPF {
					return vm.fault(b, fa), nil
				}
				return Result{}, err
			}
			if addr&0xFFF > 0xFF8 {
				if _, err := vm.Mem.Load8(addr + 7); err != nil {
					if fa, isPF := faultAddr(err); isPF {
						return vm.fault(b, fa), nil
					}
					return Result{}, err
				}
			}
			vm.stbuf = append(vm.stbuf, pendingStore{addr: addr, width: 8, val: math.Float64bits(r.F[in.Rd])})

		case host.BEQZ:
			taken := r.R[in.Ra] == 0
			vm.AppInsns++
			if observed {
				vm.observe(in, blockPC(b.ID, i), taken, blockPC(b.ID, i+1+int(in.Imm)))
			}
			if taken {
				i += 1 + int(in.Imm)
				continue
			}

		case host.EXIT:
			vm.retire(in, blockPC(b.ID, i), true, TOLDispatchPC)
			return Result{Kind: ExitToTOL, NextPC: in.Target, Block: b, ExitIdx: i}, nil
		case host.CHAINED:
			vm.retire(in, blockPC(b.ID, i), true, blockPC(vm.link(b, i), 0))
			return Result{Kind: ExitToTOL, NextPC: in.Target, Block: b, ExitIdx: i}, nil
		case host.EXITIND:
			next := r.R[in.Ra]
			// Indirect targets get a synthetic address derived from the
			// guest PC so the BTB sees stable per-target addresses.
			vm.retire(in, blockPC(b.ID, i), true, 0x8000_0000|next)
			return Result{Kind: ExitIndirect, NextPC: next, Block: b, ExitIdx: i}, nil

		case host.ASSERTH:
			failed := r.R[in.Ra] == 0
			// A failing assert behaves like a mispredicted branch that
			// flushes to the TOL's recovery path.
			vm.retire(in, blockPC(b.ID, i), failed, TOLDispatchPC)
			if failed {
				vm.AssertFails++
				b.AssertFails++
				vm.rollback()
				return Result{Kind: ExitAssertFail, NextPC: in.Target, Block: b, ExitIdx: i}, nil
			}
		case host.CHKPT:
			vm.checkpoint()
		case host.COMMIT:
			if err := vm.commit(); err != nil {
				return Result{}, fmt.Errorf("hostvm: commit failed: %w", err)
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
			return Result{}, fmt.Errorf("hostvm: illegal host op %v in block %d at %d", in.Op, b.ID, i)
		}
		i++
	}
	return Result{}, fmt.Errorf("hostvm: block %d fell off the end (guest entry %#x)", b.ID, b.Entry)
}

func (vm *oracleVM) specFail(b *codecache.Block) Result {
	vm.MemSpecFails++
	b.SpecFails++
	vm.rollback()
	return Result{Kind: ExitMemSpecFail, NextPC: b.Entry, Block: b}
}

func (vm *oracleVM) fault(b *codecache.Block, addr uint32) Result {
	vm.rollback()
	return Result{Kind: ExitPageFault, NextPC: b.Entry, FaultAddr: addr, Block: b}
}
