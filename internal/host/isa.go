// Package host defines HISA, the PowerPC-like RISC host ISA of the
// co-designed processor: a simple fixed-format load/store ISA with a
// large register file, plus the co-design extensions the paper's TOL
// relies on — asserts, speculative memory operations, and architectural
// checkpoint/commit.
package host

import (
	"math"
	"strconv"
)

// Register file geometry.
const (
	NumIntRegs = 64
	NumFPRegs  = 32
)

// Software ABI of the Translation Optimization Layer. Guest architectural
// state is pinned to host registers so translated code never spills it to
// memory (one of the paper's emulation-cost reductions).
const (
	RZero     = 0 // hardwired zero
	RGuestGPR = 1 // r1..r8 hold guest EAX..EDI
	RFlagCF   = 9 // r9..r13 hold CF, ZF, SF, OF, PF as 0/1
	RFlagZF   = 10
	RFlagSF   = 11
	RFlagOF   = 12
	RFlagPF   = 13
	RScratch  = 14 // TOL prologue scratch; never live across blocks
	RTempBase = 16 // r16..r63 are allocatable temporaries

	FGuestFPR = 1 // f1..f8 hold guest F0..F7
	FTempBase = 9 // f9..f31 are allocatable temporaries
)

// Op enumerates HISA opcodes.
type Op uint8

// Opcode space.
const (
	NOPH Op = iota

	// Constants and moves.
	LI   // rd <- imm32
	MOVH // rd <- ra

	// Integer ALU, register and immediate forms.
	ADD
	ADDI
	SUB
	MUL
	DIV // deterministic: /0 yields all-ones quotient (matches guest IDIV)
	REM // deterministic: x rem 0 yields x
	AND
	ANDI
	OR
	ORI
	XOR
	XORI
	SHL
	SHLI
	SHR
	SHRI
	SAR
	SARI

	// Comparisons producing 0/1.
	SLT  // signed <
	SLTU // unsigned <
	SEQ
	SNE

	// Memory. The Spec flag on Inst marks speculatively hoisted
	// accesses that participate in the alias-check table.
	LD  // rd <- mem32[ra+imm]
	ST  // mem32[ra+imm] <- rd
	LDB // rd <- zext mem8[ra+imm]
	STB // mem8[ra+imm] <- rd low byte
	FLDH
	FSTH

	// Intra-block control flow (Imm = relative instruction offset from
	// the following instruction). The branch goes forward and lands
	// inside its block: codecache.Cache.Insert checks it.
	BEQZ
	_ // reserved (see NumOps)
	_

	// Code cache exits. EXIT leaves to a statically known guest PC
	// (Target); chaining rewrites it to CHAINED, and the exit's entry in
	// the block's exit table names the successor block. EXITIND leaves
	// to the guest PC held in Ra and is served by the IBTC.
	EXIT
	CHAINED
	EXITIND

	// Co-design extensions.
	ASSERTH // speculation check: fails (rollback to checkpoint) if Ra == 0
	CHKPT   // checkpoint the emulated guest architectural state
	COMMIT  // commit speculative state; Target = guest PC now architectural

	// Floating point.
	FLI
	FMOVH
	FADDH
	FSUBH
	FMULH
	FDIVH
	FSQRTH
	FABSH
	FNEGH
	FCVTI  // rd <- int32(fa), truncating, saturating like the guest
	FCVTF  // fd <- float64(int32(ra))
	FSLT   // rd <- fa < fb
	FSEQ   // rd <- fa == fb
	FUNORD // rd <- isNaN(fa) || isNaN(fb)

	_ // reserved (see NumOps)
	_
	_
	_

	// High half of the signed 64-bit product (for overflow-flag
	// synthesis of the guest IMUL).
	MULH

	// Spill traffic to the TOL-private spill area (not guest memory,
	// so it never perturbs state validation).
	SPILLI   // spill[imm] <- rd
	UNSPILLI // rd <- spill[imm]
	SPILLF
	UNSPILLF

	numOps
)

// NumOps bounds the opcode space: every defined opcode is below it.
// The reserved slots are undefined, like any opcode from NumOps on (see
// Op.Defined). They hold the places of deleted opcodes so that the
// opcodes after them keep their numbers, which translation digests
// hash.
const NumOps = int(numOps)

// Class buckets opcodes by the execution resource they occupy in the
// timing simulator.
type Class uint8

// Execution unit classes.
const (
	ClassSimple  Class = iota // 1-cycle integer ALU
	ClassComplex              // multi-cycle integer and FP
	ClassMemory
	ClassBranch
	ClassVector // no opcode; timing.Stats.ClassCount keeps its slot
)

// Inst is one host instruction. The host emulator executes slices of
// these; the timing simulator consumes the retired stream.
//
// Every field is at most 4 bytes wide, so an Inst is 20 bytes: a
// translated block's code is a slice of them, and its size is most of
// what a translation allocates. FLI is the one opcode with a 64-bit
// operand; it reads no Imm and no Target, so its immediate's bits are
// split across the two: the low word in Imm, the high word in Target.
// FLIInst writes that encoding and F64 reads it. A chained exit's
// successor is recorded in the block's exit table (codecache.Exit.Next),
// not here.
type Inst struct {
	Op     Op
	Rd     uint8 // destination (or store source)
	Ra     uint8
	Rb     uint8
	Imm    int32  // FLI: low word of the immediate
	Target uint32 // guest PC for EXIT/CHAINED/COMMIT; rollback PC for ASSERTH; FLI: high word of the immediate
	GPC    uint32 // guest PC this instruction emulates (profiling/debug)
	Spec   bool   // speculatively reordered memory access
}

// FLIInst returns the FLI that loads v into FP register rd, emulating
// guest PC gpc.
func FLIInst(rd uint8, v float64, gpc uint32) Inst {
	bits := math.Float64bits(v)
	return Inst{Op: FLI, Rd: rd, Imm: int32(uint32(bits)), Target: uint32(bits >> 32), GPC: gpc}
}

// F64 returns an FLI's immediate, bit for bit as FLIInst was given it.
func (in *Inst) F64() float64 {
	return math.Float64frombits(uint64(in.Target)<<32 | uint64(uint32(in.Imm)))
}

// Desc describes a host opcode.
type Desc struct {
	Name    string
	Class   Class
	Latency int // default execution latency in cycles
	IsLoad  bool
	IsStore bool
	IsFP    bool
	IsExit  bool // leaves the current block
}

// Descs indexes host opcode descriptions.
var Descs = [NumOps]Desc{
	NOPH: {Name: "nop", Class: ClassSimple, Latency: 1},
	LI:   {Name: "li", Class: ClassSimple, Latency: 1},
	MOVH: {Name: "mov", Class: ClassSimple, Latency: 1},
	ADD:  {Name: "add", Class: ClassSimple, Latency: 1},
	ADDI: {Name: "addi", Class: ClassSimple, Latency: 1},
	SUB:  {Name: "sub", Class: ClassSimple, Latency: 1},
	MUL:  {Name: "mul", Class: ClassComplex, Latency: 3},
	DIV:  {Name: "div", Class: ClassComplex, Latency: 12},
	REM:  {Name: "rem", Class: ClassComplex, Latency: 12},
	AND:  {Name: "and", Class: ClassSimple, Latency: 1},
	ANDI: {Name: "andi", Class: ClassSimple, Latency: 1},
	OR:   {Name: "or", Class: ClassSimple, Latency: 1},
	ORI:  {Name: "ori", Class: ClassSimple, Latency: 1},
	XOR:  {Name: "xor", Class: ClassSimple, Latency: 1},
	XORI: {Name: "xori", Class: ClassSimple, Latency: 1},
	SHL:  {Name: "shl", Class: ClassSimple, Latency: 1},
	SHLI: {Name: "shli", Class: ClassSimple, Latency: 1},
	SHR:  {Name: "shr", Class: ClassSimple, Latency: 1},
	SHRI: {Name: "shri", Class: ClassSimple, Latency: 1},
	SAR:  {Name: "sar", Class: ClassSimple, Latency: 1},
	SARI: {Name: "sari", Class: ClassSimple, Latency: 1},
	SLT:  {Name: "slt", Class: ClassSimple, Latency: 1},
	SLTU: {Name: "sltu", Class: ClassSimple, Latency: 1},
	SEQ:  {Name: "seq", Class: ClassSimple, Latency: 1},
	SNE:  {Name: "sne", Class: ClassSimple, Latency: 1},

	LD:   {Name: "ld", Class: ClassMemory, Latency: 2, IsLoad: true},
	ST:   {Name: "st", Class: ClassMemory, Latency: 1, IsStore: true},
	LDB:  {Name: "ldb", Class: ClassMemory, Latency: 2, IsLoad: true},
	STB:  {Name: "stb", Class: ClassMemory, Latency: 1, IsStore: true},
	FLDH: {Name: "fld", Class: ClassMemory, Latency: 2, IsLoad: true, IsFP: true},
	FSTH: {Name: "fst", Class: ClassMemory, Latency: 1, IsStore: true, IsFP: true},

	BEQZ: {Name: "beqz", Class: ClassBranch, Latency: 1},

	EXIT:    {Name: "exit", Class: ClassBranch, Latency: 1, IsExit: true},
	CHAINED: {Name: "chained", Class: ClassBranch, Latency: 1, IsExit: true},
	EXITIND: {Name: "exitind", Class: ClassBranch, Latency: 2, IsExit: true},

	ASSERTH: {Name: "assert", Class: ClassBranch, Latency: 1},
	CHKPT:   {Name: "chkpt", Class: ClassSimple, Latency: 1},
	COMMIT:  {Name: "commit", Class: ClassSimple, Latency: 1},

	FLI:    {Name: "fli", Class: ClassSimple, Latency: 1, IsFP: true},
	FMOVH:  {Name: "fmov", Class: ClassSimple, Latency: 1, IsFP: true},
	FADDH:  {Name: "fadd", Class: ClassComplex, Latency: 3, IsFP: true},
	FSUBH:  {Name: "fsub", Class: ClassComplex, Latency: 3, IsFP: true},
	FMULH:  {Name: "fmul", Class: ClassComplex, Latency: 4, IsFP: true},
	FDIVH:  {Name: "fdiv", Class: ClassComplex, Latency: 12, IsFP: true},
	FSQRTH: {Name: "fsqrt", Class: ClassComplex, Latency: 20, IsFP: true},
	FABSH:  {Name: "fabs", Class: ClassSimple, Latency: 1, IsFP: true},
	FNEGH:  {Name: "fneg", Class: ClassSimple, Latency: 1, IsFP: true},
	FCVTI:  {Name: "fcvti", Class: ClassComplex, Latency: 2, IsFP: true},
	FCVTF:  {Name: "fcvtf", Class: ClassComplex, Latency: 2, IsFP: true},
	FSLT:   {Name: "fslt", Class: ClassComplex, Latency: 2, IsFP: true},
	FSEQ:   {Name: "fseq", Class: ClassComplex, Latency: 2, IsFP: true},
	FUNORD: {Name: "funord", Class: ClassComplex, Latency: 2, IsFP: true},

	MULH: {Name: "mulh", Class: ClassComplex, Latency: 3},

	SPILLI:   {Name: "spilli", Class: ClassMemory, Latency: 1, IsStore: true},
	UNSPILLI: {Name: "unspilli", Class: ClassMemory, Latency: 2, IsLoad: true},
	SPILLF:   {Name: "spillf", Class: ClassMemory, Latency: 1, IsFP: true, IsStore: true},
	UNSPILLF: {Name: "unspillf", Class: ClassMemory, Latency: 2, IsFP: true, IsLoad: true},
}

// Defined reports whether op is a host instruction: below NumOps and
// not a reserved slot. The host emulator rejects any other opcode as
// illegal, the timing simulator charges it as NOPH, and String names it
// by number.
func (op Op) Defined() bool { return int(op) < NumOps && Descs[op].Name != "" }

// Desc returns the description of op; an undefined opcode gets NOPH's.
func (op Op) Desc() *Desc {
	if op.Defined() {
		return &Descs[op]
	}
	return &Descs[NOPH]
}

func (op Op) String() string {
	if !op.Defined() {
		return "op(" + strconv.Itoa(int(op)) + ")"
	}
	return Descs[op].Name
}

// IsBranch reports whether op is of ClassBranch, by the opcodes the
// class occupies: the host emulator asks once per retired instruction.
func (op Op) IsBranch() bool { return op == BEQZ || op >= EXIT && op <= ASSERTH }
