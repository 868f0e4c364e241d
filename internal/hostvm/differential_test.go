package hostvm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"darco/internal/codecache"
	"darco/internal/guestvm"
	"darco/internal/host"
)

// The generator below builds small worlds — a memory, a register file, a
// handful of blocks that exit into each other — and drives the VM and the
// oracle (oracle_test.go) through the same script of dispatches, chain
// patches, invalidations and page installs, the way the TOL drives the
// real one. After every dispatch both sides must agree on everything a
// user of the package can read.

// Registers the generated bodies never write, so that addresses stay in
// the data window and an assert can be made to fail or pass on purpose.
const (
	genMaxRd  = 37 // bodies write r0..r37
	genTarget = 38 // loaded with a block entry right before an EXITIND
	genBase   = 40 // r40..r45: data addresses
	genBases  = 6
	genZero   = 46
	genOne    = 47
)

// The data window: eight pages, the odd ones missing from a strict
// memory until it has faulted on them.
const (
	genData  = 0x20000
	genPages = 8
)

var genInts = []uint32{0, 1, 2, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}

var genFloats = []float64{0, math.Copysign(0, -1), 1, -1.5, 0.5, 1e300, -1e300, 5e-324,
	math.Inf(1), math.Inf(-1), 2147483647.5, 2147483648, -2147483649}

type blockSpec struct {
	entry uint32
	kind  codecache.BlockKind
	code  []host.Inst
	exits []codecache.Exit
}

// program is one generated world and the seed of the script run in it.
type program struct {
	cfg      Config
	strict   bool
	capacity int
	chaining bool // static exits get chained after a dispatch, as tol.execBlock does
	ibtc     bool
	hot      uint64
	regs     Regs
	blocks   []blockSpec
	script   int64
	steps    int
}

func genProgram(seed int64) *program {
	r := rand.New(rand.NewSource(seed))
	p := &program{
		cfg:      Config{AliasTableSize: 32, IBTCCost: r.Intn(7), ProfileCost: r.Intn(4)},
		strict:   r.Intn(2) == 0,
		chaining: r.Intn(4) != 0,
		ibtc:     r.Intn(3) != 0,
		hot:      []uint64{0, 2, 5}[r.Intn(3)],
		script:   seed*7919 + 1,
		steps:    25 + r.Intn(20),
	}
	if r.Intn(3) == 0 {
		p.cfg.AliasTableSize = 1 + r.Intn(3)
	}
	if r.Intn(3) == 0 {
		p.capacity = 160 // a few blocks: inserts flush
	}
	for i := range p.regs.R {
		p.regs.R[i] = genInt(r)
	}
	for i := range p.regs.F {
		p.regs.F[i] = genFloat(r, true)
	}
	for i := 0; i < genBases; i++ {
		// Inside a page, or close enough below a boundary that a few
		// offsets straddle it.
		page := uint32(genData + r.Intn(genPages)*guestvm.PageSize)
		p.regs.R[genBase+i] = page + []uint32{0x40, 0x800, guestvm.PageSize - 6}[r.Intn(3)]
	}
	p.regs.R[genZero], p.regs.R[genOne] = 0, 1

	n := 2 + r.Intn(3)
	entries := make([]uint32, n)
	for i := range entries {
		entries[i] = 0x1000 + 0x100*uint32(i)
	}
	for _, e := range entries {
		p.blocks = append(p.blocks, genBlock(r, e, entries))
	}
	return p
}

func genInt(r *rand.Rand) uint32 {
	if r.Intn(3) == 0 {
		return genInts[r.Intn(len(genInts))]
	}
	return r.Uint32()
}

func genFloat(r *rand.Rand, nan bool) float64 {
	switch k := r.Intn(4); {
	case k == 0 && nan:
		return math.NaN()
	case k <= 1:
		return genFloats[r.Intn(len(genFloats))]
	}
	return r.NormFloat64() * 1e3
}

// bodyOps is every defined opcode a block body may hold; the block's
// frame adds CHKPT, COMMIT and the exits, and chaining turns EXIT into
// CHAINED.
var bodyOps = func() (ops []host.Op) {
	for op := host.Op(0); int(op) < host.NumOps; op++ {
		if d := op.Desc(); op.Defined() && !d.IsExit {
			ops = append(ops, op)
		}
	}
	return ops
}()

// genBlock lays out CHKPT, body, up to two side exits, body, COMMIT and
// the final exit. Branches go forward only, so a block always ends.
func genBlock(r *rand.Rand, entry uint32, entries []uint32) blockSpec {
	b := blockSpec{entry: entry, kind: codecache.BlockKind(r.Intn(2))}
	emit := func(in host.Inst) { b.code = append(b.code, in) }
	exit := func(in host.Inst) {
		b.exits = append(b.exits, codecache.Exit{Idx: len(b.code), Info: codecache.ExitInfo{
			GuestInsns: 1 + r.Intn(9), GuestBBs: 1 + r.Intn(2), Taken: r.Intn(2) == 0}})
		emit(in)
	}
	target := func() uint32 { return entries[r.Intn(len(entries))] }
	body := func(n int) {
		for i := 0; i < n; i++ {
			emit(genInst(r, bodyOps[r.Intn(len(bodyOps))], entry))
		}
	}
	emit(host.Inst{Op: host.CHKPT})
	body(2 + r.Intn(8))
	for k := r.Intn(3); k > 0; k-- {
		emit(host.Inst{Op: host.BEQZ, Ra: condReg(r), Imm: 2})
		emit(host.Inst{Op: host.COMMIT})
		exit(host.Inst{Op: host.EXIT, Target: target()})
		body(1 + r.Intn(6))
	}
	if r.Intn(3) == 0 {
		tgt := target()
		if r.Intn(4) == 0 {
			tgt = 0x9000 // translated nowhere: an IBTC miss
		}
		emit(host.Inst{Op: host.LI, Rd: genTarget, Imm: int32(tgt)})
		emit(host.Inst{Op: host.COMMIT})
		exit(host.Inst{Op: host.EXITIND, Ra: genTarget})
	} else {
		emit(host.Inst{Op: host.COMMIT})
		exit(host.Inst{Op: host.EXIT, Target: target()})
	}
	// Forward branch offsets, now that the length is known: anywhere up
	// to the final COMMIT, side-exit sequences included.
	last := len(b.code) - 2
	for i := range b.code {
		in := &b.code[i]
		if in.Op == host.BEQZ && in.Imm < 0 {
			in.Imm = int32(r.Intn(min(4, last-i)))
		}
	}
	return b
}

// condReg picks a branch condition: genZero half the time, so that the
// branch is taken about as often as not, else any register.
func condReg(r *rand.Rand) uint8 {
	if r.Intn(2) == 0 {
		return genZero
	}
	return uint8(r.Intn(genOne + 1))
}

// genInst fills the fields op reads. A branch gets Imm -1: genBlock
// replaces it once it knows how far forward the branch may go.
func genInst(r *rand.Rand, op host.Op, entry uint32) host.Inst {
	in := host.Inst{Op: op}
	ireg := func() uint8 { return uint8(r.Intn(genOne + 1)) }
	ird := func() uint8 { return uint8(r.Intn(genMaxRd + 1)) }
	freg := func() uint8 { return uint8(r.Intn(host.NumFPRegs)) }
	mem := func() {
		in.Ra = uint8(genBase + r.Intn(genBases))
		in.Imm = int32(r.Intn(16)) - 4
	}
	switch op {
	case host.NOPH, host.COMMIT:
	case host.CHKPT: // rare in a body: it moves the rollback point
		if r.Intn(4) != 0 {
			in.Op = host.NOPH
		}
	case host.LI:
		in.Rd, in.Imm = ird(), int32(genInt(r))
	case host.LD, host.LDB:
		in.Rd, in.Spec = ird(), r.Intn(3) == 0
		mem()
	case host.FLDH:
		in.Rd, in.Spec = freg(), r.Intn(3) == 0
		mem()
	case host.ST, host.STB:
		in.Rd = ireg()
		mem()
	case host.FSTH:
		in.Rd = freg()
		mem()
	case host.BEQZ:
		in.Ra, in.Imm = condReg(r), -1
	case host.ASSERTH:
		in.Target = entry
		switch r.Intn(6) {
		case 0:
			in.Ra = genZero
		case 1:
			in.Ra = ireg()
		default:
			in.Ra = genOne
		}
	case host.FLI:
		in = host.FLIInst(freg(), genFloat(r, false), 0)
	case host.FMOVH, host.FSQRTH, host.FABSH, host.FNEGH:
		in.Rd, in.Ra = freg(), freg()
	case host.FADDH, host.FSUBH, host.FMULH, host.FDIVH:
		in.Rd, in.Ra, in.Rb = freg(), freg(), freg()
	case host.FCVTI:
		in.Rd, in.Ra = ird(), freg()
	case host.FCVTF:
		in.Rd, in.Ra = freg(), ireg()
	case host.FSLT, host.FSEQ, host.FUNORD:
		in.Rd, in.Ra, in.Rb = ird(), freg(), freg()
	case host.SPILLI:
		in.Rd, in.Imm = ireg(), int32(r.Intn(MaxSpillSlots))
	case host.UNSPILLI:
		in.Rd, in.Imm = ird(), int32(r.Intn(4)) // mostly slots something spilled to
	case host.SPILLF, host.UNSPILLF:
		in.Rd, in.Imm = freg(), int32(r.Intn(4))
	default: // integer ALU: register and immediate forms read what they need
		in.Rd, in.Ra, in.Rb, in.Imm = ird(), ireg(), ireg(), int32(genInt(r))
	}
	return in
}

// mode says which retirement consumers a run has attached.
type mode struct {
	retire bool   // a Retire consumer from the start
	cutAt  uint64 // a Mix whose first cut falls here (0 = no Mix)
	onCut  int
}

const (
	cutMoveOn       = iota // OnCut programs the next cut cutAt further on
	cutDetachMix           // OnCut detaches the histogram, mid-block or not
	cutAttachRetire        // OnCut attaches a Retire consumer
)

// retired is one RetireEvent by value, with the AppInsns its consumer
// read when it arrived.
type retired struct {
	inst     host.Inst
	pc       uint32
	taken    bool
	target   uint32
	addr     uint32
	appInsns uint64
}

// side is one of the two runners with its own copy of the world.
type side struct {
	vm       *VM
	run      func(*codecache.Block, uint64) (Result, RunStats, error)
	count    func(*codecache.Block, *codecache.Exit) uint64 // the per-exit counter, wherever this side keeps it
	register func(*codecache.Block)
	chain    func(src *codecache.Block, instIdx int, dst *codecache.Block)
	cache    *codecache.Cache
	made     []*codecache.Block // every block built, in order
	events   []retired
	cuts     []uint64
	mix      *RetireMix
}

func newSide(p *program, oracle bool, m mode) *side {
	mem := guestvm.NewMemory(p.strict)
	for pg := uint32(0); pg < genPages; pg++ {
		if !p.strict || pg%2 == 0 {
			mem.InstallPage(genData+pg*guestvm.PageSize, genPage(genData+pg*guestvm.PageSize))
		}
	}
	s := &side{vm: New(mem, p.cfg), cache: codecache.New(p.capacity)}
	s.vm.Regs = p.regs
	s.vm.HotThreshold = p.hot
	if p.ibtc {
		s.vm.IBTC = s.cache.Lookup
	}
	s.run = s.vm.Run
	s.count = func(_ *codecache.Block, e *codecache.Exit) uint64 { return e.Count }
	s.register = func(*codecache.Block) {}
	s.chain = func(src *codecache.Block, instIdx int, dst *codecache.Block) {
		_ = s.cache.Chain(src, instIdx, dst) // refused when already chained, as in execBlock
	}
	if oracle {
		o := &oracleVM{VM: s.vm, exitMeta: map[*codecache.Block]map[int]codecache.ExitInfo{},
			exitCounts: map[*codecache.Block]map[int]uint64{}, resolve: s.cache.Get,
			links: map[*codecache.Block]map[int]int{}}
		s.run = o.Run
		s.count = func(b *codecache.Block, e *codecache.Exit) uint64 { return o.exitCounts[b][e.Idx] }
		s.register = func(b *codecache.Block) {
			o.exitMeta[b] = map[int]codecache.ExitInfo{}
			for _, e := range b.Exits {
				o.exitMeta[b][e.Idx] = e.Info
			}
			o.links[b] = map[int]int{}
		}
		s.chain = func(src *codecache.Block, instIdx int, dst *codecache.Block) {
			if s.cache.Chain(src, instIdx, dst) == nil {
				o.links[src][instIdx] = dst.ID
			}
		}
	}
	record := func(ev RetireEvent) {
		s.events = append(s.events, retired{*ev.Inst, ev.PC, ev.Taken, ev.Target, ev.Addr, s.vm.AppInsns})
	}
	if m.retire {
		s.vm.Retire = record
	}
	if m.cutAt > 0 {
		s.mix = &RetireMix{CutAt: m.cutAt}
		s.mix.OnCut = func() {
			s.cuts = append(s.cuts, s.vm.AppInsns)
			s.mix.CutAt = ^uint64(0)
			switch m.onCut {
			case cutMoveOn:
				s.mix.CutAt = s.vm.AppInsns + m.cutAt
			case cutDetachMix:
				s.vm.Mix = nil
			case cutAttachRetire:
				s.vm.Retire = record
			}
		}
		s.vm.Mix = s.mix
	}
	return s
}

// genPage is the content the controller would transfer for addr's page.
func genPage(addr uint32) *[guestvm.PageSize]byte {
	var pg [guestvm.PageSize]byte
	rand.New(rand.NewSource(int64(addr))).Read(pg[:])
	return &pg
}

// insert translates spec afresh: a new block with a new id, no chains,
// zero counters. A resident translation of the same entry is replaced.
func (s *side) insert(sp *blockSpec) *codecache.Block {
	b := &codecache.Block{Entry: sp.entry, Kind: sp.kind,
		Code:  append([]host.Inst(nil), sp.code...),
		Exits: append([]codecache.Exit(nil), sp.exits...)}
	s.cache.Insert(b)
	s.made = append(s.made, b)
	s.register(b)
	return b
}

// coverage is what the generated runs reached, summed over seeds.
type coverage struct {
	ops        [host.NumOps]uint64
	kinds      [ExitPageFault + 1]int
	faults     map[host.Op]int // page faults by faulting opcode
	tailFaults map[host.Op]int // ... of those, in the page after the access's first byte
	reached    map[string]int  // stops, chain and cache events, by name
}

// lockstep runs p's script on the VM and the oracle under m and fails on
// the first difference. It returns the VM's final AppInsns.
func lockstep(t *testing.T, seed int64, p *program, m mode, deep bool, cov *coverage) uint64 {
	t.Helper()
	vm, ref := newSide(p, false, m), newSide(p, true, m)
	sides := [2]*side{vm, ref}
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d mode %+v step %d: %s", seed, m, step, fmt.Sprintf(format, args...))
	}
	r := rand.New(rand.NewSource(p.script))
	pc := p.blocks[0].entry
	specAt := func(entry uint32) *blockSpec {
		for i := range p.blocks {
			if p.blocks[i].entry == entry {
				return &p.blocks[i]
			}
		}
		return nil
	}
	for step := 0; step < p.steps; step++ {
		switch act := r.Intn(16); {
		case act == 0: // invalidate a translation, as a page install under it does
			k := r.Intn(len(vm.made) + 1)
			for _, s := range sides {
				if k < len(s.made) {
					if got, ok := s.cache.Get(s.made[k].ID); ok && got == s.made[k] {
						s.cache.Invalidate(got)
					}
				}
			}
			cov.reached["invalidate"]++
		case act == 1: // retranslate an entry, as a promotion or rebuild does
			sp := &p.blocks[r.Intn(len(p.blocks))]
			for _, s := range sides {
				s.insert(sp)
			}
		case act == 2 && r.Intn(4) == 0:
			for _, s := range sides {
				s.cache.Flush()
			}
		}
		sp := specAt(pc)
		if sp == nil { // nothing translates there: the interpreter moves on
			sp = &p.blocks[r.Intn(len(p.blocks))]
			pc = sp.entry
		}
		fuel := uint64(1 + r.Intn(120))
		if !p.chaining && !p.ibtc && r.Intn(2) == 0 {
			fuel = 0 // nothing links blocks: a dispatch is one block long
		}
		var res [2]Result
		var st [2]RunStats
		for i, s := range sides {
			blk, ok := s.cache.Lookup(pc)
			if !ok {
				blk = s.insert(sp)
			}
			var err error
			if res[i], st[i], err = s.run(blk, fuel); err != nil {
				fail(step, "side %d: %v", i, err)
			}
		}
		if a, b := res[0], res[1]; a.Kind != b.Kind || a.NextPC != b.NextPC || a.FaultAddr != b.FaultAddr ||
			a.ExitIdx != b.ExitIdx || a.Block.ID != b.Block.ID {
			fail(step, "result %+v (block %d), oracle %+v (block %d)", a, a.Block.ID, b, b.Block.ID)
		}
		if st[0] != st[1] {
			fail(step, "run stats %+v, oracle %+v", st[0], st[1])
		}
		if d := diff(vm, ref, deep || step == p.steps-1); d != "" {
			fail(step, "%s", d)
		}
		k := res[0]
		cov.kinds[k.Kind]++
		if k.Kind == ExitToTOL && k.Block.Code[k.ExitIdx].Op == host.CHAINED {
			if len(vm.vm.hotQueue) > 0 {
				cov.reached["hot"]++
			} else {
				cov.reached["fuel"]++
			}
		}
		if k.Kind == ExitPageFault && m.retire {
			ev := vm.events[len(vm.events)-1] // retired, then faulted
			cov.faults[ev.inst.Op]++
			if k.FaultAddr>>guestvm.PageShift != ev.addr>>guestvm.PageShift {
				cov.tailFaults[ev.inst.Op]++
			}
		}
		hot := [2][]uint32{vm.vm.DrainHot(), ref.vm.DrainHot()}
		if fmt.Sprint(hot[0]) != fmt.Sprint(hot[1]) {
			fail(step, "hot queue %v, oracle %v", hot[0], hot[1])
		}
		switch k.Kind {
		case ExitToTOL:
			pc = k.NextPC
			if p.chaining {
				for i, s := range sides {
					if src, ok := s.cache.Get(res[i].Block.ID); ok {
						if dst, ok := s.cache.Lookup(pc); ok {
							s.chain(src, k.ExitIdx, dst)
						}
					}
				}
			}
		case ExitIndirect:
			pc = k.NextPC
		case ExitAssertFail, ExitMemSpecFail:
			pc = p.blocks[r.Intn(len(p.blocks))].entry // the interpreter got past it
		case ExitPageFault:
			for _, s := range sides {
				s.vm.Mem.InstallPage(k.FaultAddr, genPage(k.FaultAddr&^(guestvm.PageSize-1)))
			}
		}
	}
	if vm.mix != nil {
		for op, n := range vm.mix.Ops {
			cov.ops[op] += n
		}
	}
	cov.reached["follow"] += int(vm.vm.ChainFollows)
	cov.reached["cut"] += int(vm.cache.ChainsCut)
	cov.reached["flush"] += int(vm.cache.Flushes)
	cov.reached["ibtc-hit"] += int(vm.vm.IBTCHits)
	cov.reached["ibtc-miss"] += int(vm.vm.IBTCMisses)
	cov.reached["spec-fail"] += int(vm.vm.MemSpecFails)
	return vm.vm.AppInsns
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRegs(a, b *Regs) bool {
	return a.R == b.R && sameBits(a.F[:], b.F[:])
}

// diff names the first thing the two sides disagree on. The cheap part
// runs after every dispatch; blocks, memory and the consumers' records
// are compared when deep is set.
func diff(a, b *side, deep bool) string {
	va, vb := a.vm, b.vm
	switch {
	case !sameRegs(&va.Regs, &vb.Regs):
		return fmt.Sprintf("registers\n%+v\noracle\n%+v", va.Regs, vb.Regs)
	case va.AppInsns != vb.AppInsns:
		return fmt.Sprintf("AppInsns %d, oracle %d", va.AppInsns, vb.AppInsns)
	case va.BlocksRun != vb.BlocksRun || va.ChainFollows != vb.ChainFollows || va.IBTCHits != vb.IBTCHits ||
		va.IBTCMisses != vb.IBTCMisses || va.AssertFails != vb.AssertFails ||
		va.MemSpecFails != vb.MemSpecFails || va.Rollbacks != vb.Rollbacks:
		return fmt.Sprintf("counters: blocks %d/%d follows %d/%d ibtc %d+%d/%d+%d asserts %d/%d spec %d/%d rollbacks %d/%d",
			va.BlocksRun, vb.BlocksRun, va.ChainFollows, vb.ChainFollows, va.IBTCHits, va.IBTCMisses, vb.IBTCHits, vb.IBTCMisses,
			va.AssertFails, vb.AssertFails, va.MemSpecFails, vb.MemSpecFails, va.Rollbacks, vb.Rollbacks)
	case len(a.events) != len(b.events) || len(a.cuts) != len(b.cuts):
		return fmt.Sprintf("%d events and %d cuts, oracle %d and %d", len(a.events), len(a.cuts), len(b.events), len(b.cuts))
	}
	if !deep {
		return ""
	}
	if va.spillI != vb.spillI || !sameBits(va.spillF[:], vb.spillF[:]) {
		return "spill area"
	}
	if ok, at := va.Mem.Equal(vb.Mem); !ok || fmt.Sprint(va.Mem.Pages()) != fmt.Sprint(vb.Mem.Pages()) {
		return fmt.Sprintf("memory (first difference at %#x; pages %x, oracle %x)", at, va.Mem.Pages(), vb.Mem.Pages())
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			return fmt.Sprintf("retire event %d: %+v, oracle %+v", i, a.events[i], b.events[i])
		}
	}
	for i := range a.cuts {
		if a.cuts[i] != b.cuts[i] {
			return fmt.Sprintf("cut %d at %d, oracle at %d", i, a.cuts[i], b.cuts[i])
		}
	}
	if a.mix != nil && (a.mix.Ops != b.mix.Ops || a.mix.Taken != b.mix.Taken) {
		return fmt.Sprintf("histogram %v taken %d, oracle %v taken %d", a.mix.Ops, a.mix.Taken, b.mix.Ops, b.mix.Taken)
	}
	if a.cache.ChainsMade != b.cache.ChainsMade || a.cache.ChainsCut != b.cache.ChainsCut || len(a.made) != len(b.made) {
		return "the two caches took different histories"
	}
	for k, ba := range a.made {
		bb := b.made[k]
		if ba.ID != bb.ID || ba.ExecCount != bb.ExecCount || ba.AssertFails != bb.AssertFails || ba.SpecFails != bb.SpecFails {
			return fmt.Sprintf("block %d: id %d execs %d asserts %d spec %d, oracle id %d execs %d asserts %d spec %d", k,
				ba.ID, ba.ExecCount, ba.AssertFails, ba.SpecFails, bb.ID, bb.ExecCount, bb.AssertFails, bb.SpecFails)
		}
		for i := range ba.Code {
			if ba.Code[i] != bb.Code[i] {
				return fmt.Sprintf("block %d instruction %d: %v, oracle %v", ba.ID, i, ba.Code[i], bb.Code[i])
			}
		}
		for i := range ba.Exits {
			if ca, cb := a.count(ba, &ba.Exits[i]), b.count(bb, &bb.Exits[i]); ca != cb {
				return fmt.Sprintf("block %d exit %d left %d times, oracle %d", ba.ID, ba.Exits[i].Idx, ca, cb)
			}
		}
	}
	return ""
}

func newCoverage() *coverage {
	return &coverage{faults: map[host.Op]int{}, tailFaults: map[host.Op]int{}, reached: map[string]int{}}
}

// TestRunMatchesOracle: generated worlds, nothing attached, then a Retire
// consumer, then the histogram with a cut past the end (which is also
// how the coverage below learns what executed).
func TestRunMatchesOracle(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	cov := newCoverage()
	for seed := int64(0); seed < seeds; seed++ {
		p := genProgram(seed)
		total := lockstep(t, seed, p, mode{}, true, cov)
		for _, m := range []mode{{retire: true}, {cutAt: 1 << 40}, {retire: true, cutAt: 7}} {
			if n := lockstep(t, seed, p, m, true, cov); n != total {
				t.Fatalf("seed %d: %d instructions retire under %+v, %d with nothing attached", seed, n, m, total)
			}
		}
	}
	if testing.Short() {
		return
	}
	for op := host.Op(0); int(op) < host.NumOps; op++ {
		if op.Defined() && cov.ops[op] == 0 {
			t.Errorf("%v never executed", op)
		}
	}
	for k, n := range cov.kinds {
		if n == 0 {
			t.Errorf("no dispatch ended in %v", ExitKind(k))
		}
	}
	for _, op := range []host.Op{host.LD, host.LDB, host.FLDH, host.ST, host.STB, host.FSTH} {
		if cov.faults[op] == 0 {
			t.Errorf("%v never page-faulted", op)
		}
	}
	// COMMIT cannot fault: every buffered store was probed at both ends.
	for _, op := range []host.Op{host.LD, host.FLDH, host.ST, host.FSTH} {
		if cov.tailFaults[op] == 0 {
			t.Errorf("%v never faulted past its first byte's page", op)
		}
	}
	for _, what := range []string{"fuel", "hot", "follow", "cut", "flush", "invalidate", "ibtc-hit", "ibtc-miss", "spec-fail"} {
		if cov.reached[what] == 0 {
			t.Errorf("no %s in any generated run", what)
		}
	}
}

// TestObservedRunMatchesOracleAtEveryCut programs the histogram's cut at
// every retirement of a run in turn; OnCut moves the cut on, detaches the
// histogram or attaches a Retire consumer, wherever in a block that is.
func TestObservedRunMatchesOracleAtEveryCut(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 2
	}
	cov := newCoverage()
	for seed := int64(1000); seed < 1000+seeds; seed++ {
		p := genProgram(seed)
		total := lockstep(t, seed, p, mode{}, false, cov)
		for at := uint64(1); at <= total; at++ {
			observedMatches(t, seed, p, total, mode{cutAt: at, onCut: int(at % 3), retire: at%7 == 0}, false, cov)
		}
	}
}

// observedMatches runs p under m in lockstep with the oracle and requires
// it to retire the total it retires with nothing attached.
func observedMatches(t *testing.T, seed int64, p *program, total uint64, m mode, deep bool, cov *coverage) {
	t.Helper()
	if n := lockstep(t, seed, p, m, deep, cov); n != total {
		t.Fatalf("seed %d: %d instructions retire under %+v, %d with nothing attached", seed, n, m, total)
	}
}

// FuzzObservedRunMatchesOracle is the lockstep above with the world, the
// cut, OnCut's action and a Retire consumer chosen by the input. The cut
// falls anywhere from the first retirement to one past the last, where
// every block whose branches go forward runs tallied; every difference
// is looked for after every dispatch. go test runs the seeds below and
// the corpus in testdata/fuzz; -fuzz explores beyond them.
func FuzzObservedRunMatchesOracle(f *testing.F) {
	f.Add(int64(0), uint32(1<<20), uint8(cutMoveOn), false)
	f.Add(int64(1003), uint32(40), uint8(cutMoveOn), false)
	f.Add(int64(1007), uint32(25), uint8(cutDetachMix), false)
	f.Add(int64(1011), uint32(60), uint8(cutAttachRetire), false)
	f.Add(int64(17), uint32(9), uint8(cutMoveOn), true)
	f.Fuzz(func(t *testing.T, seed int64, cut uint32, onCut uint8, retire bool) {
		p := genProgram(seed)
		cov := newCoverage()
		total := lockstep(t, seed, p, mode{}, false, cov)
		m := mode{cutAt: 1 + uint64(cut)%(total+1), onCut: int(onCut % 3), retire: retire}
		observedMatches(t, seed, p, total, m, true, cov)
	})
}
