package hostvm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"darco/internal/codecache"
	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/host"
)

// exits is the exit table of a hand-built block whose only exit is its
// last instruction, at idx.
func exits(idx, guestInsns int) []codecache.Exit {
	return []codecache.Exit{{Idx: idx, Info: codecache.ExitInfo{GuestInsns: guestInsns, GuestBBs: 1}}}
}

// block wraps code into a runnable superblock leaving through its last
// instruction. It goes through a code cache's Insert, as a translation
// does, so that its branches are held to the same invariant.
func block(code []host.Inst) *codecache.Block {
	b := &codecache.Block{Entry: 0x1000, Kind: codecache.KindSuperblock,
		Code: code, Exits: exits(len(code)-1, 1)}
	codecache.New(0).Insert(b)
	return b
}

func newVM() *VM {
	return New(guestvm.NewMemory(false), DefaultConfig())
}

func run(t *testing.T, vm *VM, b *codecache.Block) Result {
	t.Helper()
	res, _, err := vm.Run(b, 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestRegsPackUnpackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		var cpu guest.CPU
		for j := range cpu.R {
			cpu.R[j] = r.Uint32()
		}
		for j := range cpu.F {
			cpu.F[j] = r.NormFloat64()
		}
		cpu.Flags = r.Uint32() & guest.AllFlags
		var regs Regs
		regs.LoadGuest(&cpu)
		var out guest.CPU
		regs.StoreGuest(&out)
		out.EIP = cpu.EIP
		if out != cpu {
			t.Fatalf("roundtrip mismatch:\n%+v\n%+v", cpu, out)
		}
	}
}

// TestRegsSize: the register file is the 64 integer and 32 FP
// registers and nothing else, the 512 bytes every CHKPT copies.
func TestRegsSize(t *testing.T) {
	if n := unsafe.Sizeof(Regs{}); n != 512 {
		t.Errorf("Regs is %d bytes, want 512", n)
	}
}

// TestMemOpsSet pins the set observe reads to the descriptors it
// replaced: a retire event carries an address exactly for the opcodes
// Op.Desc calls loads or stores, over the whole opcode byte.
func TestMemOpsSet(t *testing.T) {
	for op := range 256 {
		d := host.Op(op).Desc()
		got := uint64(memOps)>>host.Op(op)&1 != 0
		if want := d.IsLoad || d.IsStore; got != want {
			t.Errorf("opcode %d: in memOps %v, Desc says load or store %v", op, got, want)
		}
	}
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		op   host.Op
		a, b uint32
		want uint32
	}{
		{host.ADD, 3, 4, 7},
		{host.SUB, 3, 4, 0xFFFFFFFF},
		{host.MUL, 0xFFFFFFFF, 2, 0xFFFFFFFE},
		{host.MULH, 0x40000000, 4, 1},
		{host.DIV, 17, 5, 3},
		{host.DIV, 17, 0, 0xFFFFFFFF},
		{host.DIV, 0x80000000, 0xFFFFFFFF, 0x80000000},
		{host.REM, 17, 5, 2},
		{host.REM, 17, 0, 17},
		{host.REM, 0x80000000, 0xFFFFFFFF, 0},
		{host.AND, 0xFF0F, 0x0FF0, 0x0F00},
		{host.OR, 0xF000, 0x000F, 0xF00F},
		{host.XOR, 0xFFFF, 0x0F0F, 0xF0F0},
		{host.SHL, 1, 35, 8}, // masked shift
		{host.SHR, 0x80000000, 31, 1},
		{host.SAR, 0x80000000, 31, 0xFFFFFFFF},
		{host.SLT, 0xFFFFFFFF, 0, 1}, // -1 < 0 signed
		{host.SLTU, 0xFFFFFFFF, 0, 0},
		{host.SEQ, 5, 5, 1},
		{host.SNE, 5, 5, 0},
	}
	for _, c := range cases {
		vm := newVM()
		vm.Regs.R[20], vm.Regs.R[21] = c.a, c.b
		code := []host.Inst{
			{Op: host.CHKPT},
			{Op: c.op, Rd: 22, Ra: 20, Rb: 21},
			{Op: host.COMMIT},
			{Op: host.EXIT, Target: 0x2000},
		}
		run(t, vm, block(code))
		if vm.Regs.R[22] != c.want {
			t.Errorf("%v(%#x,%#x) = %#x, want %#x", c.op, c.a, c.b, vm.Regs.R[22], c.want)
		}
	}
}

func TestStoreBufferGatesUntilCommit(t *testing.T) {
	vm := newVM()
	vm.Regs.R[20] = 0x100 // address
	vm.Regs.R[21] = 42
	code := []host.Inst{
		{Op: host.CHKPT},
		{Op: host.ST, Rd: 21, Ra: 20},
		{Op: host.LD, Rd: 22, Ra: 20}, // forwarded from the buffer
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}
	run(t, vm, block(code))
	if vm.Regs.R[22] != 42 {
		t.Errorf("store-to-load forward got %d", vm.Regs.R[22])
	}
	v, _ := vm.Mem.Load32(0x100)
	if v != 42 {
		t.Errorf("commit did not drain: %d", v)
	}
}

func TestAssertRollbackDiscardsState(t *testing.T) {
	vm := newVM()
	vm.Mem.Store32(0x100, 7)
	vm.Regs.R[20] = 0x100
	vm.Regs.R[host.RGuestGPR] = 5 // pinned guest EAX
	code := []host.Inst{
		{Op: host.CHKPT},
		{Op: host.LI, Rd: 21, Imm: 99},
		{Op: host.ST, Rd: 21, Ra: 20},                // buffered store
		{Op: host.LI, Rd: host.RGuestGPR, Imm: 1234}, // clobber pinned reg
		{Op: host.LI, Rd: 22, Imm: 0},                // failing condition
		{Op: host.ASSERTH, Ra: 22, Target: 0x1000},   // fails
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}
	res := run(t, vm, block(code))
	if res.Kind != ExitAssertFail || res.NextPC != 0x1000 {
		t.Fatalf("result %v next %#x", res.Kind, res.NextPC)
	}
	if vm.Regs.R[host.RGuestGPR] != 5 {
		t.Errorf("pinned register not rolled back: %d", vm.Regs.R[host.RGuestGPR])
	}
	v, _ := vm.Mem.Load32(0x100)
	if v != 7 {
		t.Errorf("buffered store leaked: %d", v)
	}
	if vm.Rollbacks != 1 || vm.AssertFails != 1 {
		t.Errorf("counters: rb=%d af=%d", vm.Rollbacks, vm.AssertFails)
	}
}

func TestAssertPassContinues(t *testing.T) {
	vm := newVM()
	code := []host.Inst{
		{Op: host.CHKPT},
		{Op: host.LI, Rd: 22, Imm: 1},
		{Op: host.ASSERTH, Ra: 22, Target: 0x1000},
		{Op: host.LI, Rd: 23, Imm: 77},
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}
	res := run(t, vm, block(code))
	if res.Kind != ExitToTOL || vm.Regs.R[23] != 77 {
		t.Fatalf("assert pass: %v r23=%d", res.Kind, vm.Regs.R[23])
	}
}

func TestSpeculativeLoadAliasDetection(t *testing.T) {
	vm := newVM()
	vm.Mem.Store32(0x100, 1)
	vm.Regs.R[20] = 0x100 // load address
	vm.Regs.R[21] = 0x100 // store address (same: alias)
	vm.Regs.R[23] = 9
	code := []host.Inst{
		{Op: host.CHKPT},
		{Op: host.LD, Rd: 22, Ra: 20, Spec: true}, // hoisted above the store
		{Op: host.ST, Rd: 23, Ra: 21},             // aliases: must fail
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}
	res := run(t, vm, block(code))
	if res.Kind != ExitMemSpecFail {
		t.Fatalf("want memspec fail, got %v", res.Kind)
	}
	if vm.MemSpecFails != 1 {
		t.Errorf("spec fail counter %d", vm.MemSpecFails)
	}
	// Different addresses: no failure.
	vm2 := newVM()
	vm2.Regs.R[20] = 0x100
	vm2.Regs.R[21] = 0x200
	vm2.Regs.R[23] = 9
	res = run(t, vm2, block(code))
	if res.Kind != ExitToTOL {
		t.Fatalf("disjoint spec: %v", res.Kind)
	}
}

func TestAliasTableOverflowFails(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AliasTableSize = 2
	vm := New(guestvm.NewMemory(false), cfg)
	code := []host.Inst{{Op: host.CHKPT}}
	for i := 0; i < 3; i++ {
		vm.Regs.R[20+uint8(i)] = uint32(0x100 + 16*i)
		code = append(code, host.Inst{Op: host.LD, Rd: 25, Ra: uint8(20 + i), Spec: true})
	}
	code = append(code, host.Inst{Op: host.COMMIT}, host.Inst{Op: host.EXIT, Target: 0x2000})
	res := run(t, vm, block(code))
	if res.Kind != ExitMemSpecFail {
		t.Fatalf("overflow should fail conservatively: %v", res.Kind)
	}
}

func TestPageFaultRollsBack(t *testing.T) {
	vm := New(guestvm.NewMemory(true), DefaultConfig()) // strict memory
	vm.Regs.R[20] = 0x5000
	vm.Regs.R[host.RGuestGPR] = 3
	code := []host.Inst{
		{Op: host.CHKPT},
		{Op: host.LI, Rd: host.RGuestGPR, Imm: 999},
		{Op: host.LD, Rd: 21, Ra: 20}, // faults
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}
	res := run(t, vm, block(code))
	if res.Kind != ExitPageFault || res.FaultAddr != 0x5000 {
		t.Fatalf("fault result %v addr %#x", res.Kind, res.FaultAddr)
	}
	if vm.Regs.R[host.RGuestGPR] != 3 {
		t.Errorf("state not rolled back on fault")
	}
}

func TestChainFollowing(t *testing.T) {
	vm := newVM()
	b2 := &codecache.Block{Entry: 0x1100, Kind: codecache.KindSuperblock, Code: []host.Inst{
		{Op: host.CHKPT},
		{Op: host.LI, Rd: 21, Imm: 5},
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x1200},
	}, Exits: exits(3, 2)}
	b1 := &codecache.Block{Entry: 0x1000, Kind: codecache.KindSuperblock, Code: []host.Inst{
		{Op: host.CHKPT},
		{Op: host.LI, Rd: 20, Imm: 4},
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x1100},
	}, Exits: exits(3, 3)}
	c := codecache.New(0)
	c.Insert(b1)
	c.Insert(b2)
	if err := c.Chain(b1, 3, b2); err != nil {
		t.Fatal(err)
	}
	res, st, err := vm.Run(b1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExitToTOL || res.NextPC != 0x1200 {
		t.Fatalf("chain result %v %#x", res.Kind, res.NextPC)
	}
	if vm.Regs.R[20] != 4 || vm.Regs.R[21] != 5 {
		t.Errorf("both blocks must execute")
	}
	if vm.ChainFollows != 1 {
		t.Errorf("chain follows %d", vm.ChainFollows)
	}
	if st.GuestInsnsSB != 5 || st.GuestBBs != 2 {
		t.Errorf("retirement attribution: %+v", st)
	}
}

func TestIBTCHitAndMiss(t *testing.T) {
	vm := newVM()
	target := &codecache.Block{ID: 9, Entry: 0x3000, Code: []host.Inst{
		{Op: host.CHKPT},
		{Op: host.LI, Rd: 24, Imm: 8},
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x4000},
	}, Exits: exits(3, 1)}
	vm.IBTC = func(pc uint32) (*codecache.Block, bool) {
		if pc == 0x3000 {
			return target, true
		}
		return nil, false
	}
	src := &codecache.Block{ID: 8, Entry: 0x1000, Code: []host.Inst{
		{Op: host.CHKPT},
		{Op: host.LI, Rd: 20, Imm: 0x3000},
		{Op: host.COMMIT},
		{Op: host.EXITIND, Ra: 20},
	}, Exits: exits(3, 1)}
	res := run(t, vm, src)
	if res.Kind != ExitToTOL || vm.Regs.R[24] != 8 {
		t.Fatalf("ibtc hit should continue into target: %v", res.Kind)
	}
	if vm.IBTCHits != 1 {
		t.Errorf("ibtc hits %d", vm.IBTCHits)
	}
	// Miss path.
	vm2 := newVM()
	vm2.IBTC = func(uint32) (*codecache.Block, bool) { return nil, false }
	res = run(t, vm2, src)
	if res.Kind != ExitIndirect || res.NextPC != 0x3000 {
		t.Fatalf("ibtc miss: %v %#x", res.Kind, res.NextPC)
	}
}

// TestSpillOps: spilled values reload, each spill bank grows to exactly
// the largest slot named plus one, a slot reloaded before anything
// spilled to it reads zero, blocks that never spill leave the area
// unallocated, and a later block naming lower slots neither grows nor
// moves the banks.
func TestSpillOps(t *testing.T) {
	vm := newVM()
	// install reserves b's spill slots, as the TOL does before a
	// translation can run.
	install := func(code []host.Inst) *codecache.Block {
		t.Helper()
		b := block(code)
		if err := vm.ReserveSpill(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	run(t, vm, install([]host.Inst{
		{Op: host.CHKPT},
		{Op: host.LI, Rd: 20, Imm: 5},
		{Op: host.ADD, Rd: 21, Ra: 20, Rb: 20},
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}))
	if vm.spillI != nil || vm.spillF != nil {
		t.Fatalf("a block without spills allocated spill banks of %d and %d slots", len(vm.spillI), len(vm.spillF))
	}
	vm.Regs.F[12] = 9
	code := []host.Inst{
		{Op: host.CHKPT},
		{Op: host.LI, Rd: 20, Imm: 1234},
		{Op: host.SPILLI, Rd: 20, Imm: 7},
		{Op: host.LI, Rd: 20, Imm: 0},
		{Op: host.UNSPILLI, Rd: 21, Imm: 7},
		host.FLIInst(10, 2.5, 0),
		{Op: host.SPILLF, Rd: 10, Imm: 3},
		host.FLIInst(10, 0, 0),
		{Op: host.UNSPILLF, Rd: 11, Imm: 3},
		{Op: host.UNSPILLF, Rd: 12, Imm: 5},
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}
	b := install(code)
	if len(vm.spillI) != 8 || len(vm.spillF) != 6 {
		t.Fatalf("spill banks of %d and %d slots, want 8 and 6", len(vm.spillI), len(vm.spillF))
	}
	run(t, vm, b)
	if vm.Regs.R[21] != 1234 {
		t.Errorf("int spill roundtrip %d", vm.Regs.R[21])
	}
	if vm.Regs.F[11] != 2.5 {
		t.Errorf("fp spill roundtrip %g", vm.Regs.F[11])
	}
	if vm.Regs.F[12] != 0 {
		t.Errorf("a slot nothing spilled to reloaded %g", vm.Regs.F[12])
	}
	ints, fps := &vm.spillI[0], &vm.spillF[0]
	run(t, vm, install([]host.Inst{
		{Op: host.CHKPT},
		{Op: host.SPILLI, Rd: 20, Imm: 2},
		{Op: host.UNSPILLF, Rd: 11, Imm: 3},
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}))
	if len(vm.spillI) != 8 || len(vm.spillF) != 6 || &vm.spillI[0] != ints || &vm.spillF[0] != fps {
		t.Fatalf("lower slots changed the banks: %d and %d slots", len(vm.spillI), len(vm.spillF))
	}
	if vm.Regs.F[11] != 2.5 {
		t.Errorf("fp spill roundtrip across blocks %g", vm.Regs.F[11])
	}
}

// TestSpillSlotOutOfRange: a block with a spill instruction naming a
// slot outside [0, MaxSpillSlots) is refused where it is reserved, with
// an error naming the slot, and grows nothing, not even for the valid
// spill before it.
func TestSpillSlotOutOfRange(t *testing.T) {
	for _, in := range []host.Inst{
		{Op: host.SPILLI, Rd: 20, Imm: MaxSpillSlots},
		{Op: host.UNSPILLI, Rd: 20, Imm: -1},
		{Op: host.SPILLF, Rd: 10, Imm: -7},
		{Op: host.UNSPILLF, Rd: 10, Imm: MaxSpillSlots + 100},
	} {
		vm := newVM()
		err := vm.ReserveSpill(block([]host.Inst{{Op: host.CHKPT}, {Op: host.SPILLF, Rd: 10, Imm: 3}, in,
			{Op: host.COMMIT}, {Op: host.EXIT, Target: 0x2000}}))
		want := fmt.Sprintf("%v in block @0x1000 at 2 names spill slot %d", in.Op, in.Imm)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v slot %d: error %v, want one containing %q", in.Op, in.Imm, err, want)
		}
		if vm.spillI != nil || vm.spillF != nil {
			t.Errorf("%v slot %d grew the banks to %d and %d slots", in.Op, in.Imm, len(vm.spillI), len(vm.spillF))
		}
	}
}

func TestBranchesWithinBlock(t *testing.T) {
	vm := newVM()
	code := []host.Inst{
		{Op: host.CHKPT},
		{Op: host.LI, Rd: 20, Imm: 0},
		{Op: host.BEQZ, Ra: 20, Imm: 1}, // taken: skip next
		{Op: host.LI, Rd: 21, Imm: 111}, // skipped
		{Op: host.LI, Rd: 22, Imm: 222},
		{Op: host.BEQZ, Ra: 22, Imm: 1}, // not taken
		{Op: host.LI, Rd: 23, Imm: 333},
		{Op: host.BEQZ, Ra: 0, Imm: 1},  // r0 is zero: taken, skip next
		{Op: host.LI, Rd: 24, Imm: 444}, // skipped
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}
	run(t, vm, block(code))
	if vm.Regs.R[21] != 0 || vm.Regs.R[22] != 222 || vm.Regs.R[23] != 333 || vm.Regs.R[24] != 0 {
		t.Errorf("branch semantics: %v", vm.Regs.R[20:25])
	}
}

func TestFPOpsAndConversion(t *testing.T) {
	vm := newVM()
	code := []host.Inst{
		{Op: host.CHKPT},
		host.FLIInst(10, -6.25, 0),
		{Op: host.FABSH, Rd: 11, Ra: 10},
		{Op: host.FNEGH, Rd: 12, Ra: 11},
		{Op: host.FSQRTH, Rd: 13, Ra: 11},
		{Op: host.FCVTI, Rd: 20, Ra: 10},
		{Op: host.FCVTF, Rd: 14, Ra: 20},
		{Op: host.FSLT, Rd: 21, Ra: 10, Rb: 11},
		{Op: host.FSEQ, Rd: 22, Ra: 11, Rb: 11},
		{Op: host.FUNORD, Rd: 23, Ra: 10, Rb: 11},
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}
	run(t, vm, block(code))
	if vm.Regs.F[11] != 6.25 || vm.Regs.F[12] != -6.25 || vm.Regs.F[13] != 2.5 {
		t.Errorf("fp ops: %v", vm.Regs.F[10:14])
	}
	if int32(vm.Regs.R[20]) != -6 || vm.Regs.F[14] != -6 {
		t.Errorf("conversions: %d %g", int32(vm.Regs.R[20]), vm.Regs.F[14])
	}
	if vm.Regs.R[21] != 1 || vm.Regs.R[22] != 1 || vm.Regs.R[23] != 0 {
		t.Errorf("fp compares: %v", vm.Regs.R[21:24])
	}
}

func TestFuelStopsAtBlockBoundary(t *testing.T) {
	vm := newVM()
	self := &codecache.Block{Entry: 0x1000, Code: []host.Inst{
		{Op: host.CHKPT},
		{Op: host.ADDI, Rd: 20, Ra: 20, Imm: 1},
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x1000},
	}, Exits: exits(3, 1)}
	c := codecache.New(0)
	c.Insert(self)
	if err := c.Chain(self, 3, self); err != nil {
		t.Fatal(err)
	}
	res, _, err := vm.Run(self, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.NextPC != 0x1000 {
		t.Errorf("fuel stop next pc %#x", res.NextPC)
	}
	if vm.AppInsns < 100 || vm.AppInsns > 120 {
		t.Errorf("fuel: executed %d", vm.AppInsns)
	}
}

func TestHotQueue(t *testing.T) {
	vm := newVM()
	vm.HotThreshold = 3
	b := &codecache.Block{ID: 1, Entry: 0x1000, Kind: codecache.KindBB, Code: []host.Inst{
		{Op: host.CHKPT},
		{Op: host.COMMIT},
		{Op: host.EXIT, Target: 0x2000},
	}, Exits: exits(2, 1)}
	for i := 0; i < 5; i++ {
		run(t, vm, b)
	}
	hot := vm.DrainHot()
	if len(hot) != 1 || hot[0] != 0x1000 {
		t.Fatalf("hot queue %v", hot)
	}
	if len(vm.DrainHot()) != 0 {
		t.Errorf("drain not idempotent")
	}
}

// TestIllegalOpNamed: a block holding an opcode that is past NumOps or a
// reserved slot fails as illegal, the error naming the opcode by number
// rather than as the NOPH it times as.
func TestIllegalOpNamed(t *testing.T) {
	for _, op := range []host.Op{200, host.BEQZ + 1} {
		vm := newVM()
		_, _, err := vm.Run(block([]host.Inst{{Op: host.CHKPT}, {Op: op}, {Op: host.EXIT, Target: 0x2000}}), 0)
		want := fmt.Sprintf("hostvm: illegal host op op(%d) in block 0 at 1", op)
		if err == nil || err.Error() != want {
			t.Errorf("op %d: error %v, want %q", op, err, want)
		}
	}
}
