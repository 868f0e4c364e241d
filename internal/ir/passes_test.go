package ir

import (
	"math"
	"math/rand"
	"testing"
)

// rb is a small region builder for tests.
type rb struct{ r *Region }

func newRB(asserts bool) *rb {
	return &rb{r: &Region{Entry: 0x1000, UseAsserts: asserts}}
}

func (b *rb) emit(in Inst) ValueID {
	if in.Dst == -1 {
		in.Dst = b.r.NewValue()
	}
	b.r.Emit(in)
	return in.Dst
}

func (b *rb) livein(a ArchReg) ValueID { return b.emit(Inst{Op: LiveIn, Dst: -1, Arch: a}) }
func (b *rb) consti(v uint32) ValueID  { return b.emit(Inst{Op: ConstI, Dst: -1, ImmU: v}) }
func (b *rb) op2(op Op, a, c ValueID) ValueID {
	return b.emit(Inst{Op: op, Dst: -1, A: a, B: c})
}
func (b *rb) exit(pc uint32, st ...ArchVal) {
	b.emit(Inst{Op: Exit, ImmU: pc, State: st})
}

func TestVerifyDetectsBadSSA(t *testing.T) {
	b := newRB(false)
	v := b.consti(1)
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: v})
	if err := b.r.Verify(); err != nil {
		t.Fatalf("valid region rejected: %v", err)
	}
	// Redefinition.
	bad := newRB(false)
	x := bad.consti(1)
	bad.r.Emit(Inst{Op: ConstI, Dst: x, ImmU: 2})
	bad.exit(0)
	if bad.r.Verify() == nil {
		t.Errorf("redefinition accepted")
	}
	// Use before def.
	bad2 := newRB(false)
	bad2.r.NumValues = 2
	bad2.r.Emit(Inst{Op: Add, Dst: 1, A: 2, B: 2})
	bad2.r.Emit(Inst{Op: ConstI, Dst: 2, ImmU: 0})
	bad2.exit(0)
	if bad2.r.Verify() == nil {
		t.Errorf("use-before-def accepted")
	}
	// Class mismatch: int into fadd.
	bad3 := newRB(false)
	i := bad3.consti(1)
	f := bad3.emit(Inst{Op: ConstF, Dst: -1, ImmF: 1})
	bad3.op2(Fadd, f, i)
	bad3.exit(0)
	if bad3.r.Verify() == nil {
		t.Errorf("class mismatch accepted")
	}
}

func TestForwardPassConstantFolding(t *testing.T) {
	b := newRB(false)
	c3 := b.consti(3)
	c4 := b.consti(4)
	sum := b.op2(Add, c3, c4)
	prod := b.op2(Mul, sum, c4) // 28
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: prod})
	b.r.ForwardPass()
	b.r.DCE()
	// Everything folds to one constant feeding the exit.
	var consts int
	var lastVal uint32
	for i := range b.r.Code {
		if b.r.Code[i].Op == ConstI {
			consts++
			lastVal = b.r.Code[i].ImmU
		}
		switch b.r.Code[i].Op {
		case Add, Mul:
			t.Errorf("arith survived folding: %v", b.r.Code[i].Op)
		}
	}
	if lastVal != 28 {
		t.Errorf("folded value %d, want 28", lastVal)
	}
	if consts == 0 {
		t.Errorf("no constant left")
	}
}

func TestForwardPassIdentities(t *testing.T) {
	b := newRB(false)
	x := b.livein(ArchEAX)
	z := b.consti(0)
	one := b.consti(1)
	allOnes := b.consti(0xFFFFFFFF)
	a1 := b.op2(Add, x, z)        // x
	a2 := b.op2(Mul, a1, one)     // x
	a3 := b.op2(And, a2, allOnes) // x
	a4 := b.op2(Or, a3, z)        // x
	a5 := b.op2(Shl, a4, z)       // x
	b.exit(0x2000, ArchVal{Arch: ArchEBX, Val: a5})
	b.r.ForwardPass()
	b.r.DCE()
	// The exit state must reference the livein directly.
	last := b.r.Code[len(b.r.Code)-1]
	if last.Op != Exit || last.State[0].Val != x {
		t.Fatalf("identities not collapsed: state=%v want v%d\n%s", last.State, x, b.r)
	}
}

func TestCopyPropagation(t *testing.T) {
	b := newRB(false)
	x := b.livein(ArchECX)
	m1 := b.emit(Inst{Op: Mov, Dst: -1, A: x})
	m2 := b.emit(Inst{Op: Mov, Dst: -1, A: m1})
	s := b.op2(Add, m2, m2)
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: s})
	b.r.ForwardPass()
	b.r.DCE()
	for i := range b.r.Code {
		if b.r.Code[i].Op == Mov {
			t.Errorf("mov survived copy propagation")
		}
		if b.r.Code[i].Op == Add && (b.r.Code[i].A != x || b.r.Code[i].B != x) {
			t.Errorf("add operands not propagated: %+v", b.r.Code[i])
		}
	}
}

func TestCSE(t *testing.T) {
	b := newRB(false)
	x := b.livein(ArchEAX)
	y := b.livein(ArchEBX)
	a1 := b.op2(Add, x, y)
	a2 := b.op2(Add, y, x) // commutative duplicate
	s := b.op2(Xor, a1, a2)
	b.exit(0x2000, ArchVal{Arch: ArchECX, Val: s})
	n := b.r.CSE()
	if n != 1 {
		t.Errorf("CSE removed %d, want 1", n)
	}
	b.r.ForwardPass() // xor x,x doesn't fold (not const) but adds resolve
	// After CSE the xor's operands are the same value.
	for i := range b.r.Code {
		if b.r.Code[i].Op == Xor && b.r.Code[i].A != b.r.Code[i].B {
			t.Errorf("xor operands differ after CSE")
		}
	}
}

// TestCSEKeysFloatConstantsByBits: +0.0 and -0.0 compare equal as
// float64 but are different constants; two identical NaNs compare
// unequal but are the same one.
func TestCSEKeysFloatConstantsByBits(t *testing.T) {
	b := newRB(false)
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.NaN()} {
		b.emit(Inst{Op: ConstF, Dst: -1, ImmF: f})
	}
	if n := b.r.CSE(); n != 1 || b.r.Code[1].Op != ConstF || b.r.Code[3].Op != Nop {
		t.Errorf("CSE removed %d constants, want only the second NaN:\n%s", n, b.r)
	}
}

func TestCSEDoesNotMergeLoads(t *testing.T) {
	b := newRB(false)
	addr := b.livein(ArchEBX)
	l1 := b.emit(Inst{Op: Ld32, Dst: -1, A: addr})
	l2 := b.emit(Inst{Op: Ld32, Dst: -1, A: addr})
	s := b.op2(Add, l1, l2)
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: s})
	if n := b.r.CSE(); n != 0 {
		t.Errorf("CSE touched loads (%d)", n)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	b := newRB(false)
	addr := b.livein(ArchEBX)
	dead := b.op2(Add, addr, addr)
	_ = dead
	v := b.consti(7)
	b.emit(Inst{Op: St32, A: addr, B: v})
	b.exit(0x2000)
	removed := b.r.DCE()
	if removed != 1 {
		t.Errorf("DCE removed %d, want 1 (the dead add)", removed)
	}
	hasStore := false
	for i := range b.r.Code {
		if b.r.Code[i].Op == St32 {
			hasStore = true
		}
	}
	if !hasStore {
		t.Errorf("DCE removed a store")
	}
}

func TestMemOptRedundantLoad(t *testing.T) {
	b := newRB(false)
	addr := b.livein(ArchEBX)
	l1 := b.emit(Inst{Op: Ld32, Dst: -1, A: addr, Off: 8})
	l2 := b.emit(Inst{Op: Ld32, Dst: -1, A: addr, Off: 8}) // redundant
	s := b.op2(Add, l1, l2)
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: s})
	st := b.r.MemOpt()
	if st.LoadsEliminated != 1 {
		t.Errorf("RLE eliminated %d, want 1", st.LoadsEliminated)
	}
}

func TestMemOptStoreForwarding(t *testing.T) {
	b := newRB(false)
	addr := b.livein(ArchEBX)
	v := b.livein(ArchECX)
	b.emit(Inst{Op: St32, A: addr, Off: 4, B: v})
	l := b.emit(Inst{Op: Ld32, Dst: -1, A: addr, Off: 4})
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: l})
	st := b.r.MemOpt()
	if st.LoadsEliminated != 1 {
		t.Fatalf("store forwarding eliminated %d", st.LoadsEliminated)
	}
	// The exit must now reference the stored value directly.
	last := b.r.Code[len(b.r.Code)-1]
	if last.State[0].Val != v {
		t.Errorf("forwarded value %d want %d", last.State[0].Val, v)
	}
}

func TestMemOptDeadStore(t *testing.T) {
	b := newRB(false)
	addr := b.livein(ArchEBX)
	v1 := b.consti(1)
	v2 := b.consti(2)
	b.emit(Inst{Op: St32, A: addr, B: v1}) // dead: overwritten
	b.emit(Inst{Op: St32, A: addr, B: v2})
	b.exit(0x2000)
	st := b.r.MemOpt()
	if st.StoresEliminated != 1 {
		t.Errorf("dead stores eliminated %d, want 1", st.StoresEliminated)
	}
}

func TestMemOptExitBlocksDeadStore(t *testing.T) {
	b := newRB(false)
	addr := b.livein(ArchEBX)
	cond := b.livein(ArchECX)
	v1 := b.consti(1)
	v2 := b.consti(2)
	b.emit(Inst{Op: St32, A: addr, B: v1})
	b.emit(Inst{Op: ExitIf, A: cond, ImmU: 0x3000}) // store observable here
	b.emit(Inst{Op: St32, A: addr, B: v2})
	b.exit(0x2000)
	st := b.r.MemOpt()
	if st.StoresEliminated != 0 {
		t.Errorf("store before a possible exit eliminated")
	}
}

func TestMemOptMayAliasBlocksRLE(t *testing.T) {
	b := newRB(false)
	a1 := b.livein(ArchEBX)
	a2 := b.livein(ArchESI) // unknown relation to a1
	v := b.livein(ArchECX)
	l1 := b.emit(Inst{Op: Ld32, Dst: -1, A: a1})
	b.emit(Inst{Op: St32, A: a2, B: v}) // may alias a1
	l2 := b.emit(Inst{Op: Ld32, Dst: -1, A: a1})
	s := b.op2(Add, l1, l2)
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: s})
	st := b.r.MemOpt()
	if st.LoadsEliminated != 0 {
		t.Errorf("RLE across may-alias store")
	}
}

func TestAliasClassification(t *testing.T) {
	cases := []struct {
		a, b memRef
		want AliasClass
	}{
		{memRef{base: 1, off: 0, width: 4}, memRef{base: 1, off: 0, width: 4}, AliasMust},
		{memRef{base: 1, off: 0, width: 4}, memRef{base: 1, off: 4, width: 4}, AliasNever},
		{memRef{base: 1, off: 0, width: 4}, memRef{base: 1, off: 2, width: 4}, AliasMay},
		{memRef{base: 1, off: 0, width: 4}, memRef{base: 2, off: 0, width: 4}, AliasMay},
		{memRef{base: 0, abs: 0x100, width: 4}, memRef{base: 0, abs: 0x104, width: 4}, AliasNever},
		{memRef{base: 0, abs: 0x100, width: 4}, memRef{base: 0, abs: 0x100, width: 4}, AliasMust},
		{memRef{base: 0, abs: 0x100, width: 8}, memRef{base: 0, abs: 0x104, width: 4}, AliasMay},
	}
	for _, c := range cases {
		if got := classify(c.a, c.b); got != c.want {
			t.Errorf("classify(%+v,%+v) = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestScheduleRespectsDependences(t *testing.T) {
	b := newRB(true)
	x := b.livein(ArchEAX)
	c1 := b.consti(1)
	a1 := b.op2(Add, x, c1)
	a2 := b.op2(Add, a1, c1)
	a3 := b.op2(Add, a2, c1)
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: a3})
	g := b.r.BuildDDG()
	b.r.Schedule(g, 0)
	if err := b.r.Verify(); err != nil {
		t.Fatalf("schedule broke SSA order: %v", err)
	}
}

func TestScheduleHoistsSpeculativeLoad(t *testing.T) {
	b := newRB(true)
	a1 := b.livein(ArchEBX)
	a2 := b.livein(ArchESI)
	v := b.livein(ArchECX)
	// Long dependent chain on the store address, then a store, then a
	// load that may alias: hoisting the load is profitable.
	c1 := b.consti(3)
	ch := b.op2(Mul, v, c1)
	ch = b.op2(Mul, ch, c1)
	ch = b.op2(Add, ch, a2)
	b.emit(Inst{Op: St32, A: ch, B: v})
	l := b.emit(Inst{Op: Ld32, Dst: -1, A: a1})
	s := b.op2(Add, l, v)
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: s})
	g := b.r.BuildDDG()
	st := b.r.Schedule(g, 8)
	if st.SpecLoads != 1 {
		t.Fatalf("spec loads %d, want 1", st.SpecLoads)
	}
	// The load must now precede the store and carry the Spec mark.
	loadIdx, storeIdx := -1, -1
	for i := range b.r.Code {
		if b.r.Code[i].Op == Ld32 {
			loadIdx = i
			if !b.r.Code[i].Spec {
				t.Errorf("hoisted load not marked speculative")
			}
		}
		if b.r.Code[i].Op == St32 {
			storeIdx = i
		}
	}
	if loadIdx > storeIdx {
		t.Errorf("load not hoisted (load@%d store@%d)", loadIdx, storeIdx)
	}
}

func TestScheduleNoSpecBudgetKeepsOrder(t *testing.T) {
	b := newRB(true)
	a1 := b.livein(ArchEBX)
	a2 := b.livein(ArchESI)
	v := b.livein(ArchECX)
	b.emit(Inst{Op: St32, A: a2, B: v})
	l := b.emit(Inst{Op: Ld32, Dst: -1, A: a1})
	b.exit(0x2000, ArchVal{Arch: ArchEAX, Val: l})
	g := b.r.BuildDDG()
	st := b.r.Schedule(g, 0)
	if st.SpecLoads != 0 {
		t.Fatalf("speculation without budget")
	}
	loadIdx, storeIdx := -1, -1
	for i := range b.r.Code {
		if b.r.Code[i].Op == Ld32 {
			loadIdx = i
		}
		if b.r.Code[i].Op == St32 {
			storeIdx = i
		}
	}
	if loadIdx < storeIdx {
		t.Errorf("load reordered without speculation budget")
	}
}

// TestPassesPreserveSemantics is the central IR property test: random
// regions evaluate identically before and after the full pipeline.
func TestPassesPreserveSemantics(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		reg := randomRegion(r)
		arch, archF, mem := randomState(r)

		ref := newEval(arch, archF, mem)
		if err := ref.run(reg); err != nil {
			t.Fatalf("seed %d: reference eval: %v", seed, err)
		}

		opt := cloneRegion(reg)
		opt.ForwardPass()
		opt.CSE()
		opt.DCE()
		opt.MemOpt()
		g := opt.BuildDDG()
		opt.Schedule(g, 4)
		if err := opt.Verify(); err != nil {
			t.Fatalf("seed %d: optimized region invalid: %v\n%s", seed, err, opt)
		}
		got := newEval(arch, archF, mem)
		if err := got.run(opt); err != nil {
			t.Fatalf("seed %d: optimized eval: %v\n%s", seed, err, opt)
		}
		// Speculative loads may execute early but the evaluator runs in
		// order, so results are directly comparable.
		if ref.exitPC != got.exitPC {
			t.Fatalf("seed %d: exit pc %#x vs %#x", seed, ref.exitPC, got.exitPC)
		}
		for a, v := range ref.final {
			if got.final[a] != v {
				t.Fatalf("seed %d: arch %v = %#x vs %#x\noriginal:\n%s\noptimized:\n%s",
					seed, a, got.final[a], v, reg, opt)
			}
		}
		for a, v := range ref.finalF {
			if math.Float64bits(got.finalF[a]) != math.Float64bits(v) {
				t.Fatalf("seed %d: arch %v = %g vs %g", seed, a, got.finalF[a], v)
			}
		}
		for addr, v := range ref.mem {
			if got.mem[addr] != v {
				t.Fatalf("seed %d: mem[%#x] = %#x vs %#x", seed, addr, got.mem[addr], v)
			}
		}
	}
}

// randomRegion builds a random well-formed region: straight-line integer
// and FP computation over liveins with loads, stores, conditional exits
// and a final exit carrying full state.
func randomRegion(r *rand.Rand) *Region { return genRegion(r, false) }

// genRegion builds randomRegion's regions and, under pressure, longer
// ones that end by folding every value they computed into the final
// exit's state, so more values are live at once than either register
// pool holds and the linear scan has to spill.
func genRegion(r *rand.Rand, pressure bool) *Region {
	b := newRB(false)
	var ints []ValueID
	var fps []ValueID
	for _, a := range []ArchReg{ArchEAX, ArchEBX, ArchECX, ArchESI} {
		ints = append(ints, b.livein(a))
	}
	fps = append(fps, b.emit(Inst{Op: LiveIn, Dst: -1, Arch: ArchF0}))
	// Two disjoint memory bases as constants.
	base1 := b.consti(0x1000)
	base2 := b.consti(0x2000)
	bases := []ValueID{base1, base2, ints[1]}
	pickI := func() ValueID { return ints[r.Intn(len(ints))] }
	pickF := func() ValueID { return fps[r.Intn(len(fps))] }

	n := 10 + r.Intn(40)
	if pressure {
		n = 150 + r.Intn(150)
	}
	for i := 0; i < n; i++ {
		switch r.Intn(12) {
		case 0, 1, 2, 3:
			ops := []Op{Add, Sub, Mul, And, Or, Xor, Slt, Sltu, Seq, Sne, Shl, Shr, Sar, Div, Rem, Mulh}
			op := ops[r.Intn(len(ops))]
			ints = append(ints, b.op2(op, pickI(), pickI()))
		case 4:
			ints = append(ints, b.consti(r.Uint32()))
		case 5:
			addr := bases[r.Intn(len(bases))]
			ints = append(ints, b.emit(Inst{Op: Ld32, Dst: -1, A: addr, Off: int32(4 * r.Intn(8))}))
		case 6:
			addr := bases[r.Intn(len(bases))]
			b.emit(Inst{Op: St32, A: addr, Off: int32(4 * r.Intn(8)), B: pickI()})
		case 7:
			fop := []Op{Fadd, Fsub, Fmul}[r.Intn(3)]
			fps = append(fps, b.op2(fop, pickF(), pickF()))
		case 8:
			fps = append(fps, b.emit(Inst{Op: ConstF, Dst: -1, ImmF: r.NormFloat64()}))
		case 9:
			ints = append(ints, b.op2(Fslt, pickF(), pickF()))
		case 10:
			fps = append(fps, b.emit(Inst{Op: Fcvtf, Dst: -1, A: pickI()}))
		case 11:
			// Conditional side exit (multi-exit region).
			cond := b.op2(Seq, pickI(), pickI())
			b.emit(Inst{Op: ExitIf, A: cond, ImmU: uint32(0x3000 + i),
				State: []ArchVal{{Arch: ArchEAX, Val: pickI()}, {Arch: ArchF0 + 1, Val: pickF()}}})
		}
	}
	if pressure {
		acc, facc := ints[0], fps[0]
		for _, k := range r.Perm(len(ints)) {
			acc = b.op2(Add, acc, ints[k])
		}
		for _, k := range r.Perm(len(fps)) {
			facc = b.op2(Fadd, facc, fps[k])
		}
		ints, fps = []ValueID{acc}, []ValueID{facc}
	}
	b.exit(0x2000,
		ArchVal{Arch: ArchEAX, Val: pickI()},
		ArchVal{Arch: ArchEBX, Val: pickI()},
		ArchVal{Arch: ArchECX, Val: pickI()},
		ArchVal{Arch: ArchF0, Val: pickF()},
	)
	return b.r
}

func randomState(r *rand.Rand) (map[ArchReg]uint64, map[ArchReg]float64, map[uint32]byte) {
	arch := map[ArchReg]uint64{
		ArchEAX: uint64(r.Uint32()), ArchEBX: 0x4000 + uint64(r.Uint32()%64)*4,
		ArchECX: uint64(r.Uint32()), ArchESI: uint64(r.Uint32()),
	}
	archF := map[ArchReg]float64{ArchF0: r.NormFloat64() * 10}
	mem := map[uint32]byte{}
	for i := 0; i < 256; i++ {
		mem[uint32(0x1000+i)] = byte(r.Uint32())
		mem[uint32(0x2000+i)] = byte(r.Uint32())
		mem[uint32(0x4000+i)] = byte(r.Uint32())
	}
	return arch, archF, mem
}

func cloneRegion(r *Region) *Region {
	cp := &Region{Entry: r.Entry, NumValues: r.NumValues, UseAsserts: r.UseAsserts}
	cp.Code = make([]Inst, len(r.Code))
	copy(cp.Code, r.Code)
	for i := range cp.Code {
		if len(r.Code[i].State) > 0 {
			cp.Code[i].State = append([]ArchVal(nil), r.Code[i].State...)
		}
	}
	return cp
}
