package ir

import (
	"math/rand"
	"testing"

	"darco/internal/host"
)

func TestPinnedHostRegMapping(t *testing.T) {
	reg, fp := PinnedHostReg(ArchEAX)
	if reg != host.RGuestGPR || fp {
		t.Errorf("eax -> r%d fp=%v", reg, fp)
	}
	reg, fp = PinnedHostReg(ArchEDI)
	if reg != host.RGuestGPR+7 || fp {
		t.Errorf("edi -> r%d", reg)
	}
	reg, fp = PinnedHostReg(ArchCF)
	if reg != host.RFlagCF || fp {
		t.Errorf("cf -> r%d", reg)
	}
	reg, fp = PinnedHostReg(ArchPF)
	if reg != host.RFlagPF {
		t.Errorf("pf -> r%d", reg)
	}
	reg, fp = PinnedHostReg(ArchF0 + 3)
	if reg != host.FGuestFPR+3 || !fp {
		t.Errorf("f3 -> f%d fp=%v", reg, fp)
	}
}

func TestAllocateLiveInsArePinned(t *testing.T) {
	b := newRB(false)
	x := b.livein(ArchEAX)
	f := b.emit(Inst{Op: LiveIn, Dst: -1, Arch: ArchF0})
	s := b.op2(Add, x, x)
	fs := b.op2(Fadd, f, f)
	b.exit(0x2000, ArchVal{Arch: ArchEBX, Val: s}, ArchVal{Arch: ArchF0 + 1, Val: fs})
	a := b.r.Allocate()
	if a.Loc[x].Kind != LocPinned || a.Loc[x].N != host.RGuestGPR {
		t.Errorf("livein eax loc %v", a.Loc[x])
	}
	if a.Loc[f].Kind != LocPinned || !a.Loc[f].FP {
		t.Errorf("livein f0 loc %v", a.Loc[f])
	}
	if a.Loc[s].Kind != LocReg || a.Loc[s].N < host.RTempBase {
		t.Errorf("temp loc %v", a.Loc[s])
	}
	if err := a.Verify(b.r); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateImmediateFolding(t *testing.T) {
	b := newRB(false)
	x := b.livein(ArchEAX)
	c := b.consti(42) // used only as the B operand of Add
	s := b.op2(Add, x, c)
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: s})
	a := b.r.Allocate()
	if a.Loc[c].Kind != LocImm {
		t.Errorf("foldable const got %v", a.Loc[c])
	}
	// A const used as a divisor needs a register (no DIVI form).
	b2 := newRB(false)
	x2 := b2.livein(ArchEAX)
	c2 := b2.consti(7)
	d := b2.op2(Div, x2, c2)
	b2.exit(0x2000, ArchVal{Arch: ArchEAX, Val: d})
	a2 := b2.r.Allocate()
	if a2.Loc[c2].Kind != LocReg {
		t.Errorf("div const got %v", a2.Loc[c2])
	}
}

func TestAllocateSpillsUnderPressure(t *testing.T) {
	b := newRB(false)
	x := b.livein(ArchEAX)
	one := b.consti(1)
	// Create more simultaneously-live values than allocatable registers.
	var vals []ValueID
	for i := 0; i < 60; i++ {
		v := b.op2(Add, x, one)
		x = v
		vals = append(vals, v)
	}
	// Keep them all live until the end: fold into one sum.
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = b.op2(Xor, acc, v)
	}
	// Hmm: xor chain kills values as it goes. Force long ranges by
	// using early values late:
	for i := 0; i < 20; i++ {
		acc = b.op2(Add, acc, vals[i])
	}
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: acc})
	a := b.r.Allocate()
	if err := a.Verify(b.r); err != nil {
		t.Fatal(err)
	}
}

// TestAllocateRandomRegionsVerify: allocation never assigns overlapping
// live ranges to the same register.
func TestAllocateRandomRegionsVerify(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed + 1000))
		reg := randomRegion(r)
		reg.ForwardPass()
		reg.CSE()
		reg.DCE()
		a := reg.Allocate()
		if err := a.Verify(reg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGenerateSimpleBlock(t *testing.T) {
	b := newRB(false)
	x := b.livein(ArchEAX)
	c := b.consti(5)
	s := b.op2(Add, x, c)
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: s})
	a := b.r.Allocate()
	gen, err := b.r.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	// Expect CHKPT, ADDI (folded imm), MOVH to pinned, COMMIT, EXIT.
	ops := make([]host.Op, len(gen.Code))
	for i := range gen.Code {
		ops[i] = gen.Code[i].Op
	}
	if ops[0] != host.CHKPT {
		t.Errorf("first op %v", ops[0])
	}
	hasADDI := false
	for _, op := range ops {
		if op == host.ADDI {
			hasADDI = true
		}
		if op == host.LI {
			t.Errorf("constant not folded into ADDI: %v", ops)
		}
	}
	if !hasADDI {
		t.Errorf("no ADDI emitted: %v", ops)
	}
	last := gen.Code[len(gen.Code)-1]
	if last.Op != host.EXIT || last.Target != 0x2000 {
		t.Errorf("last op %v", last)
	}
	if gen.Code[len(gen.Code)-2].Op != host.COMMIT {
		t.Errorf("no commit before exit")
	}
	if len(gen.Exits) != 1 || gen.Exits[0].Idx != len(gen.Code)-1 {
		t.Errorf("exit sites %v, want the final EXIT", gen.Exits)
	}
}

func TestGenerateExitIfSkipsWritebacks(t *testing.T) {
	b := newRB(false)
	x := b.livein(ArchEAX)
	y := b.livein(ArchEBX)
	cond := b.op2(Slt, x, y)
	s := b.op2(Add, x, y)
	b.emit(Inst{Op: ExitIf, A: cond, ImmU: 0x3000, State: []ArchVal{{Arch: ArchEAX, Val: s}}})
	b.exit(0x2000, ArchVal{Arch: ArchEBX, Val: s})
	a := b.r.Allocate()
	gen, err := b.r.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	// Find the BEQZ guarding the conditional exit; its target must land
	// after that exit's EXIT instruction.
	beqz := -1
	for i := range gen.Code {
		if gen.Code[i].Op == host.BEQZ {
			beqz = i
			break
		}
	}
	if beqz < 0 {
		t.Fatalf("no BEQZ for conditional exit")
	}
	landing := beqz + 1 + int(gen.Code[beqz].Imm)
	exitSeen := false
	for i := beqz + 1; i < landing; i++ {
		if gen.Code[i].Op == host.EXIT {
			exitSeen = true
		}
	}
	if !exitSeen {
		t.Errorf("BEQZ does not skip over the exit sequence")
	}
}
