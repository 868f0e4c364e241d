package timing

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"darco/internal/host"
	"darco/internal/hostvm"
)

// srcRegs and dstReg are the opcode switches Consume decoded every
// event with before the table existed. They stay here as the oracle
// the table is checked against.

// srcRegs enumerates source registers of a host instruction.
func srcRegs(in *host.Inst) (ia, ib int, fa, fb int) {
	ia, ib, fa, fb = -1, -1, -1, -1
	switch in.Op {
	case host.NOPH, host.LI, host.FLI, host.CHKPT, host.COMMIT, host.EXIT, host.CHAINED,
		host.UNSPILLI, host.UNSPILLF:
	case host.MOVH, host.ADDI, host.ANDI, host.ORI, host.XORI, host.SHLI, host.SHRI, host.SARI,
		host.LD, host.LDB, host.EXITIND, host.ASSERTH, host.BEQZ, host.SPILLI:
		ia = int(in.Ra)
		if in.Op == host.SPILLI {
			ia = int(in.Rd)
		}
	case host.ADD, host.SUB, host.MUL, host.MULH, host.DIV, host.REM, host.AND, host.OR, host.XOR,
		host.SHL, host.SHR, host.SAR, host.SLT, host.SLTU, host.SEQ, host.SNE:
		ia, ib = int(in.Ra), int(in.Rb)
	case host.ST, host.STB:
		ia, ib = int(in.Ra), int(in.Rd) // address base + store data
	case host.FLDH:
		ia = int(in.Ra)
	case host.FSTH:
		ia, fb = int(in.Ra), int(in.Rd)
	case host.FMOVH, host.FSQRTH, host.FABSH, host.FNEGH, host.FCVTI:
		fa = int(in.Ra)
	case host.FCVTF:
		ia = int(in.Ra)
	case host.FADDH, host.FSUBH, host.FMULH, host.FDIVH, host.FSLT, host.FSEQ, host.FUNORD:
		fa, fb = int(in.Ra), int(in.Rb)
	case host.SPILLF:
		fa = int(in.Rd)
	}
	return
}

// dstReg reports the destination register and its class.
func dstReg(in *host.Inst) (reg int, class uint8) {
	switch in.Op {
	case host.LI, host.MOVH, host.ADD, host.ADDI, host.SUB, host.MUL, host.MULH, host.DIV, host.REM,
		host.AND, host.ANDI, host.OR, host.ORI, host.XOR, host.XORI, host.SHL, host.SHLI,
		host.SHR, host.SHRI, host.SAR, host.SARI, host.SLT, host.SLTU, host.SEQ, host.SNE,
		host.LD, host.LDB, host.FCVTI, host.FSLT, host.FSEQ, host.FUNORD, host.UNSPILLI:
		return int(in.Rd), 0
	case host.FLI, host.FMOVH, host.FADDH, host.FSUBH, host.FMULH, host.FDIVH, host.FSQRTH,
		host.FABSH, host.FNEGH, host.FCVTF, host.FLDH, host.UNSPILLF:
		return int(in.Rd), 1
	}
	return -1, 0
}

// TestOpsMatchOracle checks every host opcode's table row against the
// switches and the descriptor fields the old Consume read: the same
// source slots, destination slot, unit pool, class, latency and flags.
// A host opcode added without a row in opShapes fails here (its zero
// row reads and writes integer register Rd) instead of timing as
// something it is not.
func TestOpsMatchOracle(t *testing.T) {
	banks := [2]int{slotInt, slotFP}
	ops := buildOps()
	for i := range 256 {
		op := host.Op(i)
		if !op.Defined() {
			if ops[op] != ops[host.NOPH] {
				t.Errorf("undefined opcode %d does not time as NOPH", op)
			}
			continue
		}
		in := &host.Inst{Op: op, Rd: 3, Ra: 5, Rb: 7}
		regs := uint32(in.Rd) | uint32(in.Ra)<<8 | uint32(in.Rb)<<16
		row, d := ops[op], op.Desc()

		var want []int
		ia, ib, fa, fb := srcRegs(in)
		for i, r := range [4]int{ia, ib, fa, fb} {
			if r >= 0 {
				want = append(want, banks[i/2]+r)
			}
		}
		var got []int
		for _, src := range row.src {
			if s := int(src.slot(regs)); s != slotZero {
				got = append(got, s)
			}
		}
		sort.Ints(want)
		sort.Ints(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: source slots %v, oracle %v", op, got, want)
		}

		wantDst := slotSink
		if reg, class := dstReg(in); reg >= 0 {
			wantDst = banks[class] + reg
		}
		if got := int(row.dst.slot(regs)); got != wantDst {
			t.Errorf("%v: destination slot %d, oracle %d", op, got, wantDst)
		}

		wantPool := poolSimple
		if d.Class == host.ClassComplex {
			wantPool = poolComplex
		}
		if int(row.pool) != wantPool || row.class != d.Class {
			t.Errorf("%v: pool %d class %d, oracle pool %d class %d", op, row.pool, row.class, wantPool, d.Class)
		}

		if int(row.lat) != d.Latency {
			t.Errorf("%v: latency %d, want %d", op, row.lat, d.Latency)
		}

		scratch := op == host.SPILLI || op == host.UNSPILLI || op == host.SPILLF || op == host.UNSPILLF
		wantFlags := map[uint8]bool{
			flagLoad:        d.IsLoad && !scratch,
			flagStore:       d.IsStore && !scratch,
			flagUnpipelined: op == host.DIV || op == host.REM || op == host.FDIVH || op == host.FSQRTH,
			flagBranch:      d.Class == host.ClassBranch,
			flagConditional: op == host.BEQZ || op == host.ASSERTH,
		}
		for flag, want := range wantFlags {
			if got := row.flags&flag != 0; got != want {
				t.Errorf("%v: flag %#x is %v, oracle %v", op, flag, got, want)
			}
		}
	}
}

// refCache is the cache as it was before the flat arrays and the
// same-line path: one slice per set, every hit touched. The
// differential test drives it beside Cache.
type refCache struct {
	tags     [][]uint64
	lru      [][]uint64
	clock    []uint64
	setMask  uint32
	lineBits uint32

	Accesses, Misses, Prefills uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	c := &refCache{
		tags:    make([][]uint64, cfg.Sets),
		lru:     make([][]uint64, cfg.Sets),
		clock:   make([]uint64, cfg.Sets),
		setMask: uint32(cfg.Sets - 1),
	}
	for i := range c.tags {
		c.tags[i] = make([]uint64, cfg.Ways)
		c.lru[i] = make([]uint64, cfg.Ways)
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c
}

func (c *refCache) index(addr uint32) (set uint32, tag uint64) {
	line := addr >> c.lineBits
	return line & c.setMask, uint64(line) | validBit
}

func (c *refCache) touch(s uint32, w int) {
	c.clock[s]++
	c.lru[s][w] = c.clock[s]
}

func (c *refCache) victim(s uint32) int {
	worst := 0
	for i, v := range c.lru[s] {
		if v < c.lru[s][worst] {
			worst = i
		}
	}
	return worst
}

func (c *refCache) Access(addr uint32) bool {
	c.Accesses++
	s, tag := c.index(addr)
	for w, t := range c.tags[s] {
		if t == tag {
			c.touch(s, w)
			return true
		}
	}
	c.Misses++
	w := c.victim(s)
	c.tags[s][w] = tag
	c.touch(s, w)
	return false
}

func (c *refCache) Probe(addr uint32) bool {
	s, tag := c.index(addr)
	for _, t := range c.tags[s] {
		if t == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Prefill(addr uint32) {
	s, tag := c.index(addr)
	for w, t := range c.tags[s] {
		if t == tag {
			c.touch(s, w)
			return
		}
	}
	w := c.victim(s)
	c.tags[s][w] = tag
	c.touch(s, w)
	c.Prefills++
}

func (c *refCache) clone() *refCache {
	n := *c
	n.tags, n.lru = make([][]uint64, len(c.tags)), make([][]uint64, len(c.lru))
	for i := range c.tags {
		n.tags[i], n.lru[i] = slices.Clone(c.tags[i]), slices.Clone(c.lru[i])
	}
	n.clock = slices.Clone(c.clock)
	return &n
}

// TestCacheMatchesReference drives Cache and refCache with the same
// seeded sequences of Access, Probe and Prefill and requires every
// answer and every counter to agree. The address mix is what the
// same-line path has to survive: most operations repeat the previous
// line or another line of its set, so prefills land between two
// accesses to one line, evict it in the narrow geometries, and outrank
// it in the wide ones. Halfway through, both are cloned and the clones
// go on with a sequence of their own, so a copy that shared state with
// its original, or lost the line the shortcut remembers, diverges.
func TestCacheMatchesReference(t *testing.T) {
	geometries := []CacheConfig{
		{Sets: 1, Ways: 1, LineBytes: 64},
		{Sets: 1, Ways: 2, LineBytes: 64},
		{Sets: 4, Ways: 2, LineBytes: 64},
		{Sets: 16, Ways: 4, LineBytes: 4096}, // a TLB
		{Sets: 8, Ways: 3, LineBytes: 32},
	}
	const steps = 20000
	for gi, cfg := range geometries {
		for seed := int64(0); seed < 8; seed++ {
			drive := func(who string, got *Cache, ref *refCache, rng *rand.Rand, addr uint32, from, to int) uint32 {
				setSpan := uint32(cfg.Sets * cfg.LineBytes)
				for step := from; step < to; step++ {
					switch r := rng.Intn(10); {
					case r < 4: // same line, another byte
						addr = addr&^uint32(cfg.LineBytes-1) | uint32(rng.Intn(cfg.LineBytes))
					case r < 8: // same set, one of a few lines
						addr = addr%setSpan + uint32(rng.Intn(2*cfg.Ways+1))*setSpan
					default:
						addr = uint32(rng.Intn(64 * cfg.LineBytes * cfg.Sets))
					}
					switch r := rng.Intn(10); {
					case r < 6:
						if g, w := got.Access(addr), ref.Access(addr); g != w {
							t.Fatalf("%+v seed %d %s step %d: Access(%#x) = %v, reference %v", cfg, seed, who, step, addr, g, w)
						}
					case r < 8:
						got.Prefill(addr)
						ref.Prefill(addr)
					default:
						if g, w := got.Probe(addr), ref.Probe(addr); g != w {
							t.Fatalf("%+v seed %d %s step %d: Probe(%#x) = %v, reference %v", cfg, seed, who, step, addr, g, w)
						}
					}
					if got.Accesses != ref.Accesses || got.Misses != ref.Misses || got.Prefills != ref.Prefills {
						t.Fatalf("%+v seed %d %s step %d: counters %d/%d/%d, reference %d/%d/%d", cfg, seed, who, step,
							got.Accesses, got.Misses, got.Prefills, ref.Accesses, ref.Misses, ref.Prefills)
					}
				}
				return addr
			}
			got, ref := NewCache(cfg), newRefCache(cfg)
			addr := drive("original", got, ref, rand.New(rand.NewSource(seed*31+int64(gi))), 0, 0, steps/2)
			gotClone, refClone := got.clone(), ref.clone()
			drive("original", got, ref, rand.New(rand.NewSource(seed*31+int64(gi)+1000)), addr, steps/2, steps)
			drive("clone", gotClone, refClone, rand.New(rand.NewSource(seed*31+int64(gi)+2000)), addr, steps/2, steps)
		}
	}
}

// TestCachePrefillMovesMRU: a prefill into another set makes that line
// the one the shortcut remembers, so the next access to the line before
// it takes the full lookup — and still hits, because nothing in its own
// set moved. A prefill that evicts the remembered line must make the
// next access to it miss.
func TestCachePrefillMovesMRU(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Ways: 1, LineBytes: 64})
	c.Access(0x000) // set 0
	if c.mru != uint64(0)|validBit {
		t.Fatalf("mru %#x after an access to line 0", c.mru)
	}
	c.Prefill(0x040) // set 1
	if c.mru != uint64(1)|validBit {
		t.Fatalf("mru %#x after a prefill of line 1", c.mru)
	}
	if !c.Access(0x008) || c.mru != uint64(0)|validBit {
		t.Fatalf("line 0 lost by a prefill into another set (mru %#x)", c.mru)
	}
	c.Prefill(0x100) // set 0 again: evicts line 0 from the only way
	if c.Access(0x010) {
		t.Fatal("access to an evicted line hit")
	}
	if c.Accesses != 3 || c.Misses != 2 || c.Prefills != 2 {
		t.Errorf("counters %d/%d/%d, want 3/2/2", c.Accesses, c.Misses, c.Prefills)
	}
}

// mixedEvent is a deterministic stream over every execution class,
// with loads that stride (so the prefetcher fills) and branches.
func mixedEvent(i int) hostvm.RetireEvent {
	ops := [...]host.Op{host.ADD, host.LD, host.MUL, host.ST, host.BEQZ, host.FADDH, host.DIV, host.FLDH}
	in := &host.Inst{Op: ops[i%len(ops)], Rd: uint8(1 + i%13), Ra: uint8(1 + i%7), Rb: uint8(1 + i%5)}
	return hostvm.RetireEvent{
		Inst:   in,
		PC:     uint32(0x1000 + 4*(i%3000)),
		Taken:  i%7 < 3,
		Target: uint32(0x1000 + 4*(i%17)),
		Addr:   uint32(0x80000 + 64*(i%9000)),
	}
}

// TestCoreCloneIndependent clones a core mid-stream and keeps feeding
// only the original: nothing the clone holds may move. Clone starts
// from a struct copy, which shares every slice the Core owns until it
// is cloned by name — the unit pools now sit in an array of slices.
func TestCoreCloneIndependent(t *testing.T) {
	// frozen is the same mid-stream state reached independently, so it
	// shares nothing with core whatever Clone does.
	core, frozen := New(DefaultConfig()), New(DefaultConfig())
	for i := 0; i < 20000; i++ {
		core.Consume(mixedEvent(i))
		frozen.Consume(mixedEvent(i))
	}
	clone := core.Clone()
	for i := 20000; i < 60000; i++ {
		core.Consume(mixedEvent(i))
	}
	core.AddTOL(1000)
	if reflect.DeepEqual(core, frozen) {
		t.Fatal("the original did not move; the test feeds nothing")
	}
	// reflect.DeepEqual follows every pointer and slice: Stats, the
	// scoreboard, unit pools, IQ ring, caches, TLBs, predictor and
	// prefetcher tables.
	if !reflect.DeepEqual(clone, frozen) {
		t.Error("clone changed while only the original consumed")
	}
	// And the other direction: a clone continues exactly as the
	// original would have.
	for i := 20000; i < 60000; i++ {
		clone.Consume(mixedEvent(i))
	}
	clone.AddTOL(1000)
	if !reflect.DeepEqual(clone, core) {
		t.Errorf("clone diverged from the original over the same stream:\n got %+v\nwant %+v", clone.Stats, core.Stats)
	}
}
