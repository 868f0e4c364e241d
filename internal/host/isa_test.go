package host

import "testing"

// TestDescTableComplete: every opcode has a name, a class and a latency.
func TestDescTableComplete(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		d := op.Desc()
		if d.Name == "" {
			t.Errorf("op %d has no name", op)
		}
		if d.Latency <= 0 {
			t.Errorf("op %v has latency %d", op, d.Latency)
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
		VFADD:   ClassVector,
		SPILLI:  ClassMemory,
	}
	for op, want := range cases {
		if got := op.Desc().Class; got != want {
			t.Errorf("%v class %v, want %v", op, got, want)
		}
	}
}

// TestIsBranchIsTheBranchClass: the opcode range IsBranch compares
// against holds exactly the ClassBranch opcodes — the host emulator
// retires those in their own case and everything else up front.
func TestIsBranchIsTheBranchClass(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if got, want := op.IsBranch(), op.Desc().Class == ClassBranch; got != want {
			t.Errorf("%v: IsBranch %v, class branch %v", op, got, want)
		}
	}
	if Op(NumOps).IsBranch() || Op(255).IsBranch() {
		t.Errorf("an undefined opcode is no branch")
	}
}

// TestLoadStoreFlags pins the IsLoad/IsStore markers.
func TestLoadStoreFlags(t *testing.T) {
	loads := []Op{LD, LDB, FLDH, VFLD, UNSPILLI, UNSPILLF}
	stores := []Op{ST, STB, FSTH, VFST, SPILLI, SPILLF}
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
	for op := Op(0); int(op) < NumOps; op++ {
		in := Inst{Op: op, Rd: 1, Ra: 2, Rb: 3, Imm: 4, Target: 0x1000, Link: 7}
		if s := in.String(); s == "" {
			t.Errorf("op %v renders empty", op)
		}
	}
	in := Inst{Op: LD, Rd: 5, Ra: 6, Imm: -8, Spec: true}
	if got := in.String(); got != "ld.s r5, [r6-8]" {
		t.Errorf("spec load renders %q", got)
	}
}
