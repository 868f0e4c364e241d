package timing

import (
	"testing"

	"darco/internal/host"
	"darco/internal/hostvm"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 64, Latency: 1})
	if c.Access(0x1000) {
		t.Errorf("cold access hit")
	}
	if !c.Access(0x1000) || !c.Access(0x1004) {
		t.Errorf("warm access missed")
	}
	if c.Accesses != 3 || c.Misses != 1 {
		t.Errorf("counters %d/%d", c.Accesses, c.Misses)
	}
}

// TestCacheLRUReplacement is the regression test for the recency-stamp
// bug: with 2 ways, the least recently used line must be the victim.
func TestCacheLRUReplacement(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 1, Ways: 2, LineBytes: 64, Latency: 1})
	c.Access(0x0)  // miss, fill way A
	c.Access(0x40) // miss, fill way B (different line, same set)
	c.Access(0x0)  // hit: A is now most recent
	c.Access(0x80) // miss: must evict B, not A
	if !c.Access(0x0) {
		t.Fatalf("LRU evicted the most recently used line")
	}
	if c.Access(0x40) {
		t.Fatalf("evicted line still present")
	}
}

// TestCacheTwoLinesPingPong: alternating between two lines in different
// sets must hit forever after the cold misses.
func TestCacheTwoLinesPingPong(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 128, Ways: 4, LineBytes: 64, Latency: 1})
	c.Access(0x0000)
	c.Access(0x5040)
	for i := 0; i < 100; i++ {
		if !c.Access(0x0000) || !c.Access(0x5040) {
			t.Fatalf("ping-pong miss at iteration %d", i)
		}
	}
	if c.Misses != 2 {
		t.Errorf("misses %d, want 2", c.Misses)
	}
}

func TestCacheProbeAndPrefill(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 64, Latency: 1})
	if c.Probe(0x100) {
		t.Errorf("probe hit on empty cache")
	}
	c.Prefill(0x100)
	if !c.Probe(0x100) {
		t.Errorf("prefilled line not present")
	}
	if c.Accesses != 0 {
		t.Errorf("prefill counted as access")
	}
	if c.Prefills != 1 {
		t.Errorf("prefill count %d", c.Prefills)
	}
}

func TestTLBHierarchy(t *testing.T) {
	h := &TLBHierarchy{
		L1I:     NewTLB(TLBConfig{Entries: 4, Ways: 2, Latency: 0}),
		L1D:     NewTLB(TLBConfig{Entries: 4, Ways: 2, Latency: 0}),
		L2:      NewTLB(TLBConfig{Entries: 16, Ways: 4, Latency: 7}),
		WalkLat: 30,
	}
	// Cold data access: L1 miss, L2 miss, walk.
	if pen := h.Translate(0x10000, false); pen != 37 {
		t.Errorf("cold translation penalty %d", pen)
	}
	// Warm: free.
	if pen := h.Translate(0x10000, false); pen != 0 {
		t.Errorf("warm translation penalty %d", pen)
	}
	if h.Walks != 1 {
		t.Errorf("walks %d", h.Walks)
	}
	// Instruction side is independent at L1 but shares L2.
	if pen := h.Translate(0x10000, true); pen != 7 {
		t.Errorf("L2-hit translation penalty %d", pen)
	}
}

func TestBPredLearnsLoop(t *testing.T) {
	p := NewBPred(BPredConfig{GShareBits: 10, BTBEntries: 64})
	// A branch taken 9 times then not taken, repeated: gshare should
	// learn the pattern far better than 50%.
	misp := 0
	for rep := 0; rep < 60; rep++ {
		for i := 0; i < 10; i++ {
			taken := i != 9
			if p.Predict(0x40, taken, 0x100, true) {
				misp++
			}
		}
	}
	if acc := 1 - float64(misp)/600; acc < 0.9 {
		t.Errorf("loop pattern accuracy %.2f", acc)
	}
}

func TestBPredBTB(t *testing.T) {
	p := NewBPred(BPredConfig{GShareBits: 10, BTBEntries: 64})
	// First taken encounter installs the target; subsequent ones hit.
	p.Predict(0x80, true, 0x2000, false)
	if p.Predict(0x80, true, 0x2000, false) {
		t.Errorf("unconditional with known target mispredicted")
	}
	// Target change redirects once.
	if !p.Predict(0x80, true, 0x3000, false) {
		t.Errorf("target change not detected")
	}
}

func TestStridePrefetcher(t *testing.T) {
	l1 := NewCache(CacheConfig{Sets: 64, Ways: 4, LineBytes: 64, Latency: 1})
	pf := NewStridePrefetcher(16, 2)
	// A steady 64-byte stride from one PC trains after 2 confirmations.
	addr := uint32(0x10000)
	for i := 0; i < 8; i++ {
		pf.Observe(0x44, addr, l1, nil)
		addr += 64
	}
	if pf.Trained == 0 || pf.Issued == 0 {
		t.Fatalf("prefetcher never trained/issued (t=%d i=%d)", pf.Trained, pf.Issued)
	}
	// The next lines should already be resident.
	if !l1.Probe(addr) {
		t.Errorf("next line not prefetched")
	}
}

func mk(op host.Op, rd, ra, rb uint8) hostvm.RetireEvent {
	in := &host.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb}
	return hostvm.RetireEvent{Inst: in, PC: 0x100}
}

func TestCoreDualIssue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IssueWidth = 2
	cfg.FetchWidth = 2
	core := New(cfg)
	// Independent single-cycle instructions over a warm instruction
	// footprint: IPC should approach the 2-wide issue width.
	for i := 0; i < 4000; i++ {
		ev := mk(host.ADDI, uint8(16+i%8), 1, 0)
		ev.PC = uint32(0x1000 + 4*(i%32))
		core.Consume(ev)
	}
	if ipc := core.Stats.IPC(); ipc < 1.5 {
		t.Errorf("independent stream IPC %.2f", ipc)
	}
}

func TestCoreDependentChainSerializes(t *testing.T) {
	core := New(DefaultConfig())
	// r16 <- r16 * r16 chain: each multiply (latency 3) depends on the
	// previous one: CPI must be near the latency.
	for i := 0; i < 500; i++ {
		ev := mk(host.MUL, 16, 16, 16)
		ev.PC = uint32(0x1000 + 4*i)
		core.Consume(ev)
	}
	cpi := float64(core.Stats.Cycles) / float64(core.Stats.Insns)
	if cpi < 2.5 {
		t.Errorf("dependent multiply chain CPI %.2f, want near 3", cpi)
	}
	if core.Stats.StallOperand == 0 {
		t.Errorf("no operand stalls recorded")
	}
}

func TestCoreCacheMissCosts(t *testing.T) {
	cfg := DefaultConfig()
	core := New(cfg)
	// A pointer chase (each load feeds the next address) striding far
	// apart: every access misses and the dependence exposes the
	// latency.
	for i := 0; i < 200; i++ {
		ev := mk(host.LD, 16, 16, 0)
		ev.PC = 0x1000
		ev.Addr = uint32(i) * 8192
		core.Consume(ev)
	}
	missCPI := float64(core.Stats.Cycles) / float64(core.Stats.Insns)
	core2 := New(cfg)
	for i := 0; i < 200; i++ {
		ev := mk(host.LD, 16, 16, 0)
		ev.PC = 0x1000
		ev.Addr = 0x100 // always the same line
		core2.Consume(ev)
	}
	hitCPI := float64(core2.Stats.Cycles) / float64(core2.Stats.Insns)
	if missCPI < 4*hitCPI {
		t.Errorf("miss CPI %.1f not clearly above hit CPI %.1f", missCPI, hitCPI)
	}
}

func TestCoreMispredictPenalty(t *testing.T) {
	cfg := DefaultConfig()
	biased := New(cfg)
	random := New(cfg)
	pattern := func(i int) bool { return (i*2654435761)>>16&1 == 1 } // pseudo-random
	for i := 0; i < 2000; i++ {
		evB := mk(host.BEQZ, 0, 16, 0)
		evB.PC = 0x2000
		evB.Taken = true
		evB.Target = 0x3000
		biased.Consume(evB)
		evR := mk(host.BEQZ, 0, 16, 0)
		evR.PC = 0x2000
		evR.Taken = pattern(i)
		evR.Target = 0x3000
		random.Consume(evR)
	}
	if biased.Stats.Cycles >= random.Stats.Cycles {
		t.Errorf("random branches should cost more: %d vs %d",
			biased.Stats.Cycles, random.Stats.Cycles)
	}
}

func TestCoreAddTOL(t *testing.T) {
	core := New(DefaultConfig())
	core.AddTOL(1000)
	if core.Stats.TOLInsns != 1000 {
		t.Errorf("tol insns %d", core.Stats.TOLInsns)
	}
	want := uint64(float64(1000) * core.Cfg.TOLCPI)
	if core.Stats.TOLCycles < want-1 || core.Stats.TOLCycles > want+1 {
		t.Errorf("tol cycles %d want ~%d", core.Stats.TOLCycles, want)
	}
}

func TestCoreSpillScratchpadBypassesCache(t *testing.T) {
	core := New(DefaultConfig())
	before := core.L1D.Accesses
	ev := mk(host.SPILLI, 16, 0, 0)
	core.Consume(ev)
	ev = mk(host.UNSPILLI, 16, 0, 0)
	core.Consume(ev)
	if core.L1D.Accesses != before {
		t.Errorf("spill traffic hit the data cache")
	}
}

func TestCoreIssueWidthScales(t *testing.T) {
	run := func(width int) uint64 {
		cfg := DefaultConfig()
		cfg.IssueWidth = width
		cfg.FetchWidth = width
		cfg.SimpleUnits = width
		core := New(cfg)
		for i := 0; i < 2000; i++ {
			ev := mk(host.ADDI, uint8(16+i%16), uint8(40+i%8), 0)
			ev.PC = uint32(0x1000 + 4*(i%64))
			core.Consume(ev)
		}
		return core.Stats.Cycles
	}
	if run(4) >= run(1) {
		t.Errorf("4-wide should beat 1-wide on independent code")
	}
}
