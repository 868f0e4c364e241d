package host

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// TestDescTableComplete: every defined opcode has a latency, and the
// reserved slots are the retired opcodes' numbers and nothing else.
func TestDescTableComplete(t *testing.T) {
	reserved := map[Op]bool{BEQZ + 1: true, BEQZ + 2: true, FUNORD + 1: true, FUNORD + 2: true, FUNORD + 3: true, FUNORD + 4: true}
	for op := Op(0); int(op) < NumOps; op++ {
		if op.Defined() == reserved[op] {
			t.Errorf("op %d: defined %v, reserved %v", op, op.Defined(), reserved[op])
		}
		if d := op.Desc(); d.Latency <= 0 {
			t.Errorf("op %v has latency %d", op, d.Latency)
		}
	}
	if EXIT != 34 || UNSPILLF != 62 {
		t.Errorf("opcode numbers moved: EXIT %d, UNSPILLF %d", EXIT, UNSPILLF)
	}
}

// TestUndefinedOps: an opcode that is reserved or past NumOps names
// itself by number and describes itself as NOPH, which is how the
// timing simulator charges it.
func TestUndefinedOps(t *testing.T) {
	for _, op := range []Op{BEQZ + 1, FUNORD + 1, Op(NumOps), 200, 255} {
		if op.Defined() {
			t.Errorf("op %d is defined", op)
		}
		want := fmt.Sprintf("op(%d)", op)
		if got := op.String(); got != want {
			t.Errorf("op %d is named %q, want %q", op, got, want)
		}
		if in := (Inst{Op: op}); in.String() != want {
			t.Errorf("op %d disassembles as %q, want %q", op, in.String(), want)
		}
		if op.Desc() != &Descs[NOPH] {
			t.Errorf("op %d is not described as NOPH", op)
		}
	}
}

// TestClassAssignments pins the unit classes the timing simulator
// depends on.
func TestClassAssignments(t *testing.T) {
	cases := map[Op]Class{
		ADD:     ClassSimple,
		MUL:     ClassComplex,
		DIV:     ClassComplex,
		LD:      ClassMemory,
		ST:      ClassMemory,
		FLDH:    ClassMemory,
		BEQZ:    ClassBranch,
		EXIT:    ClassBranch,
		CHAINED: ClassBranch,
		EXITIND: ClassBranch,
		ASSERTH: ClassBranch,
		FADDH:   ClassComplex,
		FSQRTH:  ClassComplex,
		SPILLI:  ClassMemory,
	}
	for op, want := range cases {
		if got := op.Desc().Class; got != want {
			t.Errorf("%v class %v, want %v", op, got, want)
		}
	}
}

// TestIsBranchIsTheBranchClass: the opcodes IsBranch compares against
// are exactly the ClassBranch ones, over the whole opcode byte — the
// host emulator retires those in their own case and everything else up
// front.
func TestIsBranchIsTheBranchClass(t *testing.T) {
	for op := range 256 {
		if got, want := Op(op).IsBranch(), Op(op).Desc().Class == ClassBranch; got != want {
			t.Errorf("%v: IsBranch %v, class branch %v", Op(op), got, want)
		}
	}
}

// TestLoadStoreFlags pins the IsLoad/IsStore markers.
func TestLoadStoreFlags(t *testing.T) {
	loads := []Op{LD, LDB, FLDH, UNSPILLI, UNSPILLF}
	stores := []Op{ST, STB, FSTH, SPILLI, SPILLF}
	for _, op := range loads {
		if !op.Desc().IsLoad {
			t.Errorf("%v should be a load", op)
		}
	}
	for _, op := range stores {
		if !op.Desc().IsStore {
			t.Errorf("%v should be a store", op)
		}
	}
	if ADD.Desc().IsLoad || ADD.Desc().IsStore {
		t.Errorf("add marked as memory")
	}
}

// TestABIRegistersDisjoint: pinned guest state, scratch and temporaries
// must not overlap.
func TestABIRegistersDisjoint(t *testing.T) {
	used := map[int]string{}
	claim := func(r int, what string) {
		if prev, ok := used[r]; ok {
			t.Errorf("r%d claimed by both %s and %s", r, prev, what)
		}
		used[r] = what
	}
	claim(RZero, "zero")
	for i := 0; i < 8; i++ {
		claim(RGuestGPR+i, "guest gpr")
	}
	for r := RFlagCF; r <= RFlagPF; r++ {
		claim(r, "flag")
	}
	claim(RScratch, "scratch")
	claim(RProfile, "profile")
	for r := RTempBase; r < NumIntRegs; r++ {
		claim(r, "temp")
	}
}

// TestDisasmAllOps: the disassembler renders every opcode.
func TestDisasmAllOps(t *testing.T) {
	for op := range 256 {
		in := Inst{Op: Op(op), Rd: 1, Ra: 2, Rb: 3, Imm: 4, Target: 0x1000}
		if s := in.String(); s == "" {
			t.Errorf("op %v renders empty", op)
		}
	}
	in := Inst{Op: LD, Rd: 5, Ra: 6, Imm: -8, Spec: true}
	if got := in.String(); got != "ld.s r5, [r6-8]" {
		t.Errorf("spec load renders %q", got)
	}
	in = FLIInst(3, -6.25, 0)
	if got := in.String(); got != "fli f3, -6.25" {
		t.Errorf("fli renders %q", got)
	}
}

// TestInstSize: an instruction is the 20 bytes of its 4-byte-aligned
// fields and nothing else; a translated block's code is a slice of them.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n != 20 {
		t.Errorf("Inst is %d bytes, want 20", n)
	}
}

// TestFLIImmediateRoundTrip: FLIInst and F64 carry every float64 bit
// pattern through Imm and Target unchanged, signed zeros, subnormals,
// infinities and NaN payloads included, and FLIInst sets nothing else.
func TestFLIImmediateRoundTrip(t *testing.T) {
	bits := []uint64{
		0, 1 << 63, // +0, -0
		1, 0x000F_FFFF_FFFF_FFFF, 1<<63 | 1, // subnormals
		0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000, // ±Inf
		0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0001, 0x7FF4_0000_DEAD_BEEF, 0xFFFF_FFFF_FFFF_FFFF, 0xFFF8_0000_0000_0001, // NaNs
		math.Float64bits(1), math.Float64bits(-6.25), math.Float64bits(math.Pi), math.Float64bits(math.MaxFloat64),
		0x0000_0001_8000_0000, 0x8000_0000_0000_0001, 0x0000_0000_FFFF_FFFF, 0xFFFF_FFFF_0000_0000, // words apart
	}
	for _, want := range bits {
		in := FLIInst(7, math.Float64frombits(want), 0x1234)
		if got := math.Float64bits(in.F64()); got != want {
			t.Errorf("%#016x: F64 returns %#016x (Imm %#x, Target %#x)", want, got, uint32(in.Imm), in.Target)
		}
		in.Imm, in.Target = 0, 0
		if in != (Inst{Op: FLI, Rd: 7, GPC: 0x1234}) {
			t.Errorf("%#016x: FLIInst sets %+v beside the immediate", want, in)
		}
	}
}
