package ir

import (
	"fmt"

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

// heldReg is a register's current holder in the linear scan.
type heldReg struct {
	v         ValueID
	end       int
	reg, rank int
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
	// scan covers the remaining defined values, in definition order.
	ivs := s.ivs[:0]
	for i := range r.Code {
		in := &r.Code[i]
		switch v := in.Dst; {
		case v == 0 || defIdx[v] != i:
		case constOp[v] != Nop && !needReg[v]:
			a.Loc[v] = Loc{Kind: LocImm, FP: constOp[v] == ConstF}
		case a.Loc[v].Kind == LocNone:
			ivs = append(ivs, interval{v: v, start: i, end: max(lastUse[v], i), fp: in.FPResult()})
		}
	}
	s.ivs = ivs
	s.ending = grow(s.ending, n)
	s.nextEnding = grow(s.nextEnding, r.NumValues+1)
	s.scan(a, false, intTempLo, intTempHi, &a.IntSlots)
	s.scan(a, true, fpTempLo, fpTempHi, &a.FPSlots)
	return a
}

// scan runs the linear scan over one register class's intervals.
//
// A register is either on the free stack or held by the interval it
// was last given to, so what is active is s.held[lo..hi]. Each holder
// carries its rank in the active list of the textbook form — where an
// expiry appends freed registers to the stack in list order and a spill
// takes the first of the furthest-ending intervals — which a new holder
// gets past every other and a spill's replacement inherits from its
// victim. Intervals are linked into s.ending by their last use, so an
// expiry visits only what ends, and sorts that (usually one or two) by
// rank. Values a spill evicted stay linked and are skipped: they are no
// longer in a register.
func (s *Scratch) scan(a *Alloc, fp bool, lo, hi int, slots *int) {
	free := s.free[:0]
	for reg := lo; reg <= hi; reg++ {
		free = append(free, reg)
	}
	ending, next := s.ending, s.nextEnding
	clear(ending)
	expired, rank := 0, 0 // ends below expired have been expired
	batch := s.batch
	for _, iv := range s.ivs {
		if iv.fp != fp {
			continue
		}
		batch = batch[:0]
		for ; expired < iv.start; expired++ {
			for v := ending[expired]; v != 0; v = next[v] {
				if l := a.Loc[v]; l.Kind == LocReg {
					batch = append(batch, s.held[l.N])
				}
			}
		}
		for k := 1; k < len(batch); k++ { // insertion sort by rank
			for j := k; j > 0 && batch[j].rank < batch[j-1].rank; j-- {
				batch[j], batch[j-1] = batch[j-1], batch[j]
			}
		}
		for _, h := range batch {
			free = append(free, h.reg)
		}

		reg, r := -1, rank
		if len(free) > 0 {
			reg, free = free[len(free)-1], free[:len(free)-1]
			rank++
		} else {
			// Spill the interval with the furthest end, or the current
			// one if it ends last.
			far := &s.held[lo]
			for k := lo + 1; k <= hi; k++ {
				if h := &s.held[k]; h.end > far.end || h.end == far.end && h.rank < far.rank {
					far = h
				}
			}
			if far.end <= iv.end {
				a.Loc[iv.v] = Loc{Kind: LocSlot, N: *slots, FP: fp}
				*slots++
				a.Spills++
				continue
			}
			a.Loc[far.v] = Loc{Kind: LocSlot, N: *slots, FP: fp}
			*slots++
			a.Spills++
			reg, r = far.reg, far.rank
		}
		a.Loc[iv.v] = Loc{Kind: LocReg, N: reg, FP: fp}
		s.held[reg] = heldReg{v: iv.v, end: iv.end, reg: reg, rank: r}
		next[iv.v], ending[iv.end] = ending[iv.end], iv.v
	}
	s.free, s.batch = free, batch
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
