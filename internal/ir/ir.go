// Package ir implements the Translation Optimization Layer's
// intermediate representation and optimization pipeline: SSA-form linear
// regions, a forward pass of classic single-pass optimizations (constant
// folding/propagation, copy propagation, common subexpression
// elimination), backward dead code elimination, data dependence graph
// construction with memory disambiguation, redundant load elimination
// and store forwarding, list scheduling, linear-scan register
// allocation, and host code generation.
package ir

import "fmt"

// ValueID names an SSA value. 0 is "no value".
type ValueID int32

// ArchReg names a guest architectural location the IR reads at region
// entry and writes back at region exits: 0..7 guest GPRs, 8..12 the
// flags CF ZF SF OF PF as 0/1 values, 13..20 guest FP registers.
type ArchReg uint8

// Architectural register space.
const (
	ArchEAX ArchReg = iota
	ArchECX
	ArchEDX
	ArchEBX
	ArchESP
	ArchEBP
	ArchESI
	ArchEDI
	ArchCF
	ArchZF
	ArchSF
	ArchOF
	ArchPF
	ArchF0      // ArchF0+i is guest FP register i
	NumArchRegs = ArchF0 + 8
)

// IsFP reports whether the architectural location holds a float64.
func (a ArchReg) IsFP() bool { return a >= ArchF0 }

func (a ArchReg) String() string {
	switch {
	case a < ArchCF:
		return [...]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}[a]
	case a == ArchCF:
		return "cf"
	case a == ArchZF:
		return "zf"
	case a == ArchSF:
		return "sf"
	case a == ArchOF:
		return "of"
	case a == ArchPF:
		return "pf"
	default:
		return fmt.Sprintf("f%d", a-ArchF0)
	}
}

// Op enumerates IR operations.
type Op uint8

// IR operation space.
const (
	Nop Op = iota

	LiveIn // Dst <- entry value of architectural register Arch
	ConstI // Dst <- ImmU
	ConstF // Dst <- ImmF
	Mov    // Dst <- A (integer)
	FMov   // Dst <- A (float)

	Add
	Sub
	Mul
	Mulh // high 32 bits of signed 64-bit product
	Div  // deterministic semantics shared with guest IDIV and host DIV
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Sar
	Slt
	Sltu
	Seq
	Sne

	Ld32 // Dst <- mem32[A+Off]
	Ld8  // Dst <- zext mem8[A+Off]
	LdF  // Dst <- mem64[A+Off]
	St32 // mem32[A+Off] <- B
	St8  // mem8[A+Off] <- B
	StF  // mem64[A+Off] <- B

	Fadd
	Fsub
	Fmul
	Fdiv
	Fsqrt
	Fabs
	Fneg
	Fcvti  // int <- float, truncating/saturating
	Fcvtf  // float <- int32
	Fslt   // int 0/1 <- A < B (floats)
	Fseq   // int 0/1 <- A == B (floats)
	Funord // int 0/1 <- isNaN(A) || isNaN(B)

	Exit    // leave region to guest PC ImmU; State holds the arch snapshot
	ExitIf  // if A != 0 leave region to guest PC ImmU
	ExitInd // leave region to guest PC held in A
	Assert  // speculation check: rollback if A == 0
	SetArch // eagerly write A into the pinned host register of Arch

	numOps
)

// NumOps is the number of IR operations.
const NumOps = int(numOps)

var opNames = [NumOps]string{
	Nop: "nop", LiveIn: "livein", ConstI: "consti", ConstF: "constf",
	Mov: "mov", FMov: "fmov",
	Add: "add", Sub: "sub", Mul: "mul", Mulh: "mulh", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr", Sar: "sar",
	Slt: "slt", Sltu: "sltu", Seq: "seq", Sne: "sne",
	Ld32: "ld32", Ld8: "ld8", LdF: "ldf", St32: "st32", St8: "st8", StF: "stf",
	Fadd: "fadd", Fsub: "fsub", Fmul: "fmul", Fdiv: "fdiv", Fsqrt: "fsqrt",
	Fabs: "fabs", Fneg: "fneg", Fcvti: "fcvti", Fcvtf: "fcvtf",
	Fslt: "fslt", Fseq: "fseq", Funord: "funord",
	Exit: "exit", ExitIf: "exitif", ExitInd: "exitind", Assert: "assert",
	SetArch: "setarch",
}

func (op Op) String() string {
	if int(op) < NumOps && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

// ArchVal binds an architectural register to the SSA value that must be
// written back when leaving through an exit.
type ArchVal struct {
	Arch ArchReg
	Val  ValueID
}

// ExitInfo is retirement metadata the translator attaches to exits; it
// flows through to the code cache block unchanged.
type ExitInfo struct {
	GuestInsns int
	GuestBBs   int
	Taken      bool
}

// Inst is one IR instruction.
type Inst struct {
	Op   Op
	Dst  ValueID
	A, B ValueID
	Arch ArchReg // LiveIn source
	ImmU uint32  // ConstI value; Exit/ExitIf guest target PC
	Off  int32   // memory displacement for loads and stores
	ImmF float64 // ConstF value
	GPC  uint32  // guest PC this instruction derives from
	Spec bool    // speculatively hoisted memory access

	// State is the architectural writeback set of Exit/ExitIf/ExitInd.
	State []ArchVal
	// Meta is exit retirement metadata.
	Meta ExitInfo
}

// IsExit reports whether the instruction leaves the region.
func (in *Inst) IsExit() bool {
	return in.Op == Exit || in.Op == ExitIf || in.Op == ExitInd
}

// IsLoad reports whether the instruction reads data memory.
func (in *Inst) IsLoad() bool { return in.Op == Ld32 || in.Op == Ld8 || in.Op == LdF }

// IsStore reports whether the instruction writes data memory.
func (in *Inst) IsStore() bool { return in.Op == St32 || in.Op == St8 || in.Op == StF }

// MemWidth reports the access width in bytes of a load or store.
func (in *Inst) MemWidth() uint8 {
	switch in.Op {
	case Ld8, St8:
		return 1
	case Ld32, St32:
		return 4
	case LdF, StF:
		return 8
	}
	return 0
}

// HasSideEffect reports whether the instruction must be kept regardless
// of value liveness.
func (in *Inst) HasSideEffect() bool {
	return in.IsStore() || in.IsExit() || in.Op == Assert || in.Op == SetArch
}

// Uses calls f for every value the instruction reads.
func (in *Inst) Uses(f func(ValueID)) {
	if in.A != 0 {
		f(in.A)
	}
	if in.B != 0 {
		f(in.B)
	}
	for _, av := range in.State {
		if av.Val != 0 {
			f(av.Val)
		}
	}
}

// FPResult reports whether Dst holds a float64.
func (in *Inst) FPResult() bool {
	switch in.Op {
	case ConstF, FMov, Fadd, Fsub, Fmul, Fdiv, Fsqrt, Fabs, Fneg, Fcvtf, LdF:
		return true
	case LiveIn:
		return in.Arch.IsFP()
	}
	return false
}

// Region is a single-entry linear region of SSA IR: the translation unit
// of both BBM and SBM. Side exits make it multi-exit; with UseAsserts
// the region is single-entry single-exit and control speculation is
// expressed with Assert instructions.
type Region struct {
	Entry      uint32 // guest entry PC
	Code       []Inst
	NumValues  int // values are 1..NumValues
	UseAsserts bool

	s *Scratch // working memory of every pass; nil until first needed
}

// Scratch is the working memory of one translator: the region being
// translated and every table, list and buffer the passes, the register
// allocator and the code generator need for it. It is reset, never
// reallocated, per region, so a warm translator allocates nothing here.
// Whatever a pass returns (DDG, Alloc, GenResult) lives in the scratch
// and is valid until the region is transformed again or the scratch
// starts its next region; anything that must outlive that is copied out.
// A Scratch is used by one goroutine.
type Scratch struct {
	region  Region
	reorder []Inst    // Schedule's output buffer, swapped with Region.Code
	state   []ArchVal // slab behind every exit's State

	// Tables indexed by ValueID.
	resolve         []ValueID
	constOp         []Op     // ConstI or ConstF where the value is a known constant
	constBits       []uint64 // its payload: the uint32, or the float64's bits
	defIdx, lastUse []int
	live, needReg   []bool

	vals    valueTable // the front end's constant pool, then CSE's table
	avail   []availEntry
	pending []memOp // MemOpt's stores a later store may still kill

	ddg          DDG
	mems, stores []memOp // BuildDDG's accesses, and the stores among them
	ctlIdx       []int

	// Schedule's tables, indexed by instruction, and its two lists.
	height, hardPreds, softPreds, readyTime []int
	ready, order                            []int

	// The linear scan's intervals, free stack, register holders and
	// expiry lists (values by last use: ending by instruction, linked
	// through nextEnding by value).
	alloc              Alloc
	ivs                []interval
	free               []int
	held               [64]heldReg
	batch              []heldReg
	ending, nextEnding []ValueID

	gen gen
	out GenResult
}

// NewRegion starts the scratch's next region. The previous one, and
// everything derived from it, is dead from here on.
func (s *Scratch) NewRegion(entry uint32, useAsserts bool) *Region {
	s.region = Region{Entry: entry, UseAsserts: useAsserts, Code: s.region.Code[:0], s: s}
	s.state = s.state[:0]
	s.vals.reset()
	return &s.region
}

// scratch returns the region's working memory; a region built as a
// literal (tests, benchmarks) gets a private one on first use.
func (r *Region) scratch() *Scratch {
	if r.s == nil {
		r.s = new(Scratch)
	}
	return r.s
}

// grow returns buf resized to n zeroed elements, reallocating only when
// n exceeds its capacity.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, 2*n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// NewValue allocates a fresh SSA value.
func (r *Region) NewValue() ValueID {
	r.NumValues++
	return ValueID(r.NumValues)
}

// Emit appends an instruction and returns its index.
func (r *Region) Emit(in Inst) int {
	r.Code = append(r.Code, in)
	return len(r.Code) - 1
}

// KeepState copies an exit's writeback set into the scratch's slab and
// returns the copy, for the exit's State.
func (r *Region) KeepState(st []ArchVal) []ArchVal {
	s := r.scratch()
	n := len(s.state)
	s.state = append(s.state, st...)
	return s.state[n:len(s.state):len(s.state)]
}

// String renders the region as a debug listing.
func (r *Region) String() string {
	s := fmt.Sprintf("region @%#x (%d values, asserts=%v)\n", r.Entry, r.NumValues, r.UseAsserts)
	for i := range r.Code {
		in := &r.Code[i]
		s += fmt.Sprintf("  %3d: %s\n", i, in.debugString())
	}
	return s
}

func (in *Inst) debugString() string {
	switch in.Op {
	case LiveIn:
		return fmt.Sprintf("v%d = livein %s", in.Dst, in.Arch)
	case ConstI:
		return fmt.Sprintf("v%d = const %#x", in.Dst, in.ImmU)
	case ConstF:
		return fmt.Sprintf("v%d = constf %g", in.Dst, in.ImmF)
	case Mov, FMov:
		return fmt.Sprintf("v%d = %s v%d", in.Dst, in.Op, in.A)
	case Ld32, Ld8, LdF:
		spec := ""
		if in.Spec {
			spec = ".s"
		}
		return fmt.Sprintf("v%d = %s%s [v%d%+d]", in.Dst, in.Op, spec, in.A, in.Off)
	case St32, St8, StF:
		return fmt.Sprintf("%s [v%d%+d] = v%d", in.Op, in.A, in.Off, in.B)
	case Exit:
		return fmt.Sprintf("exit @%#x %s", in.ImmU, stateString(in.State))
	case ExitIf:
		return fmt.Sprintf("exitif v%d @%#x %s", in.A, in.ImmU, stateString(in.State))
	case ExitInd:
		return fmt.Sprintf("exitind v%d %s", in.A, stateString(in.State))
	case Assert:
		return fmt.Sprintf("assert v%d", in.A)
	case SetArch:
		return fmt.Sprintf("setarch %s = v%d", in.Arch, in.A)
	case Fsqrt, Fabs, Fneg, Fcvti, Fcvtf:
		return fmt.Sprintf("v%d = %s v%d", in.Dst, in.Op, in.A)
	default:
		if in.B != 0 {
			return fmt.Sprintf("v%d = %s v%d, v%d", in.Dst, in.Op, in.A, in.B)
		}
		return fmt.Sprintf("v%d = %s v%d", in.Dst, in.Op, in.A)
	}
}

func stateString(st []ArchVal) string {
	if len(st) == 0 {
		return "{}"
	}
	s := "{"
	for i, av := range st {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=v%d", av.Arch, av.Val)
	}
	return s + "}"
}
