package ir

import (
	"cmp"
	"fmt"
	"slices"

	"darco/internal/host"
)

// Linear scan register allocation over the scheduled linear region.
//
// Guest architectural state is pinned (LiveIn values read host registers
// r1..r13 / f1..f8 directly and are never reallocated); every other
// value gets a temporary from r16..r61 / f9..f29 or, under pressure, a
// spill slot serviced through reserved scratch registers.

// Allocatable register pools and scratch registers.
const (
	intTempLo = host.RTempBase // 16
	intTempHi = 61             // inclusive
	IntScr1   = 62
	IntScr2   = 63

	fpTempLo = host.FTempBase // 9
	fpTempHi = 29             // inclusive
	FPScr1   = 30
	FPScr2   = 31
)

// LocKind classifies where a value lives.
type LocKind uint8

// Location kinds.
const (
	LocNone   LocKind = iota // dead or never materialised
	LocImm                   // constant folded into immediates at use sites
	LocPinned                // guest architectural host register
	LocReg                   // allocated temporary register
	LocSlot                  // spill slot
)

// Loc is the allocated location of one SSA value.
type Loc struct {
	Kind LocKind
	N    int  // register number or slot index
	FP   bool // float64 class
}

func (l Loc) String() string {
	switch l.Kind {
	case LocImm:
		return "imm"
	case LocPinned, LocReg:
		if l.FP {
			return fmt.Sprintf("f%d", l.N)
		}
		return fmt.Sprintf("r%d", l.N)
	case LocSlot:
		return fmt.Sprintf("slot%d", l.N)
	}
	return "-"
}

// Alloc is the result of register allocation.
type Alloc struct {
	Loc      []Loc // indexed by ValueID
	IntSlots int
	FPSlots  int
	Spills   int

	// constBits holds, by ValueID, the payload of every constant: the
	// uint32, or the float64's bits (a LocImm's FP says which).
	constBits []uint64
}

// interval is the live range of one value the linear scan places.
type interval struct {
	v          ValueID
	start, end int
	fp         bool
}

// activeIv is an interval currently holding a register.
type activeIv struct {
	end int
	v   ValueID
	reg int
}

// PinnedHostReg maps an architectural register to its pinned host register.
func PinnedHostReg(a ArchReg) (reg uint8, fp bool) {
	switch {
	case a < ArchCF:
		return uint8(host.RGuestGPR + int(a)), false
	case a <= ArchPF:
		return uint8(host.RFlagCF + int(a-ArchCF)), false
	default:
		return uint8(host.FGuestFPR + int(a-ArchF0)), true
	}
}

// immUsable reports whether value v used as the B operand of in can be
// folded into a host immediate form.
func immUsable(in *Inst, v ValueID) bool {
	switch in.Op {
	case Add, Sub, And, Or, Xor, Shl, Shr, Sar:
		return v == in.B
	}
	return false
}

// Allocate assigns a location to every value in the region.
func (r *Region) Allocate() *Alloc {
	n := len(r.Code)
	s := r.constTable()
	a := &s.alloc
	*a = Alloc{Loc: grow(a.Loc, r.NumValues+1), constBits: s.constBits}
	s.defIdx, s.lastUse = grow(s.defIdx, r.NumValues+1), grow(s.lastUse, r.NumValues+1)
	s.needReg = grow(s.needReg, r.NumValues+1)
	defIdx, lastUse, needReg, constOp := s.defIdx, s.lastUse, s.needReg, s.constOp
	for i := range defIdx {
		defIdx[i] = -1
		lastUse[i] = -1
	}

	for i := 0; i < n; i++ {
		in := &r.Code[i]
		if in.Dst != 0 {
			defIdx[in.Dst] = i
			if in.Op == LiveIn {
				reg, fp := PinnedHostReg(in.Arch)
				a.Loc[in.Dst] = Loc{Kind: LocPinned, N: int(reg), FP: fp}
			}
		}
		mark := func(v ValueID) {
			lastUse[v] = i
			// A constant needs a register only where no immediate form
			// and no exit writeback can take it.
			if constOp[v] == Nop || (!immUsable(in, v) && !isExitStateUse(in, v)) {
				needReg[v] = true
			}
		}
		in.Uses(mark)
	}

	// Constants that never need a register are immediates; the linear
	// scan covers the remaining defined values.
	ivs := s.ivs[:0]
	for v := ValueID(1); int(v) <= r.NumValues; v++ {
		switch {
		case constOp[v] != Nop && !needReg[v]:
			a.Loc[v] = Loc{Kind: LocImm, FP: constOp[v] == ConstF}
		case a.Loc[v].Kind == LocNone && defIdx[v] >= 0:
			fp := r.Code[defIdx[v]].FPResult()
			ivs = append(ivs, interval{v: v, start: defIdx[v], end: max(lastUse[v], defIdx[v]), fp: fp})
		}
	}
	slices.SortFunc(ivs, func(x, y interval) int {
		return cmp.Or(cmp.Compare(x.start, y.start), cmp.Compare(x.v, y.v))
	})
	s.ivs = ivs

	alloc := func(fp bool, lo, hi int, slots *int) {
		free, active := s.free[:0], s.active[:0]
		for reg := lo; reg <= hi; reg++ {
			free = append(free, reg)
		}
		for _, iv := range ivs {
			if iv.fp != fp {
				continue
			}
			// Expire.
			kept := active[:0]
			for _, ac := range active {
				if ac.end < iv.start {
					free = append(free, ac.reg)
				} else {
					kept = append(kept, ac)
				}
			}
			active = kept
			if len(free) > 0 {
				reg := free[len(free)-1]
				free = free[:len(free)-1]
				a.Loc[iv.v] = Loc{Kind: LocReg, N: reg, FP: fp}
				active = append(active, activeIv{end: iv.end, v: iv.v, reg: reg})
				continue
			}
			// Spill the active interval with the furthest end, or the
			// current one if it ends last.
			far := -1
			for k, ac := range active {
				if far < 0 || ac.end > active[far].end {
					far = k
				}
			}
			if far >= 0 && active[far].end > iv.end {
				victim := active[far]
				a.Loc[victim.v] = Loc{Kind: LocSlot, N: *slots, FP: fp}
				*slots++
				a.Spills++
				a.Loc[iv.v] = Loc{Kind: LocReg, N: victim.reg, FP: fp}
				active[far] = activeIv{end: iv.end, v: iv.v, reg: victim.reg}
			} else {
				a.Loc[iv.v] = Loc{Kind: LocSlot, N: *slots, FP: fp}
				*slots++
				a.Spills++
			}
		}
		s.free, s.active = free, active
	}
	alloc(false, intTempLo, intTempHi, &a.IntSlots)
	alloc(true, fpTempLo, fpTempHi, &a.FPSlots)
	return a
}

// isExitStateUse reports whether v is used by in only as exit-state
// writeback (where constants can be materialised by the move itself).
func isExitStateUse(in *Inst, v ValueID) bool {
	if !in.IsExit() {
		return false
	}
	if in.A == v || in.B == v {
		return false
	}
	for _, av := range in.State {
		if av.Val == v {
			return true
		}
	}
	return false
}

// Verify checks that no two simultaneously-live values share a register.
func (a *Alloc) Verify(r *Region) error {
	lastUse := make([]int, r.NumValues+1)
	defIdx := make([]int, r.NumValues+1)
	for i := range lastUse {
		lastUse[i] = -1
		defIdx[i] = -1
	}
	for i := range r.Code {
		in := &r.Code[i]
		if in.Dst != 0 {
			defIdx[in.Dst] = i
		}
		in.Uses(func(v ValueID) { lastUse[v] = i })
	}
	for v1 := ValueID(1); int(v1) <= r.NumValues; v1++ {
		l1 := a.Loc[v1]
		if l1.Kind != LocReg || defIdx[v1] < 0 {
			continue
		}
		for v2 := v1 + 1; int(v2) <= r.NumValues; v2++ {
			l2 := a.Loc[v2]
			if l2.Kind != LocReg || l1.N != l2.N || l1.FP != l2.FP || defIdx[v2] < 0 {
				continue
			}
			s1, e1 := defIdx[v1], lastUse[v1]
			s2, e2 := defIdx[v2], lastUse[v2]
			if e1 < s1 {
				e1 = s1
			}
			if e2 < s2 {
				e2 = s2
			}
			if s1 < e2 && s2 < e1 {
				return fmt.Errorf("ir: values v%d [%d,%d] and v%d [%d,%d] share %s",
					v1, s1, e1, v2, s2, e2, l1)
			}
		}
	}
	return nil
}
