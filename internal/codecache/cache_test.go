package codecache

import (
	"testing"

	"darco/internal/host"
)

func mkBlock(entry uint32, n int) *Block {
	code := make([]host.Inst, n)
	for i := 0; i < n-1; i++ {
		code[i] = host.Inst{Op: host.NOPH}
	}
	code[n-1] = host.Inst{Op: host.EXIT, Target: entry + 100}
	return &Block{Entry: entry, Kind: KindBB, Code: code, Exits: []Exit{{Idx: n - 1}}}
}

func TestInsertLookup(t *testing.T) {
	c := New(1000)
	b := mkBlock(0x1000, 10)
	if c.Insert(b) {
		t.Errorf("unexpected flush")
	}
	got, ok := c.Lookup(0x1000)
	if !ok || got != b {
		t.Fatalf("lookup failed")
	}
	if _, ok := c.Lookup(0x2000); ok {
		t.Errorf("phantom lookup")
	}
	if c.Used() != 10 || c.Len() != 1 {
		t.Errorf("used=%d len=%d", c.Used(), c.Len())
	}
	g, ok := c.Get(b.ID)
	if !ok || g != b {
		t.Errorf("get by id failed")
	}
}

func TestInsertReplacesSameEntry(t *testing.T) {
	c := New(1000)
	old := mkBlock(0x1000, 10)
	c.Insert(old)
	sb := mkBlock(0x1000, 20)
	sb.Kind = KindSuperblock
	c.Insert(sb)
	got, ok := c.Lookup(0x1000)
	if !ok || got.Kind != KindSuperblock {
		t.Fatalf("superblock did not replace BB")
	}
	if _, ok := c.Get(old.ID); ok {
		t.Errorf("old block still resident")
	}
	if c.Used() != 20 {
		t.Errorf("used %d", c.Used())
	}
	if c.Invalidates != 1 {
		t.Errorf("invalidates %d", c.Invalidates)
	}
}

func TestChainAndUnchain(t *testing.T) {
	c := New(1000)
	a := mkBlock(0x1000, 5)
	b := mkBlock(0x1100, 5)
	a.Code[4].Target = 0x1100 // a's exit targets b
	c.Insert(a)
	c.Insert(b)
	if err := c.Chain(a, 4, b); err != nil {
		t.Fatal(err)
	}
	if a.Code[4].Op != host.CHAINED || a.Exit(4).Next != b {
		t.Fatalf("chain not installed: %v, next %v", a.Code[4], a.Exit(4).Next)
	}
	// Invalidating b must unchain a's exit.
	c.Invalidate(b)
	if a.Code[4].Op != host.EXIT || a.Exit(4).Next != nil {
		t.Fatalf("exit not restored: %v, next %v", a.Code[4].Op, a.Exit(4).Next)
	}
	if c.ChainsCut != 1 {
		t.Errorf("chains cut %d", c.ChainsCut)
	}
}

func TestChainValidation(t *testing.T) {
	c := New(1000)
	a := mkBlock(0x1000, 5)
	b := mkBlock(0x2000, 5)
	c.Insert(a)
	c.Insert(b)
	// Exit targets 0x1100, block entry is 0x2000: mismatch.
	if err := c.Chain(a, 4, b); err == nil {
		t.Errorf("chain with wrong target accepted")
	}
	if err := c.Chain(a, 0, b); err == nil {
		t.Errorf("chain at non-exit accepted")
	}
	// An EXIT the table does not list has no Next to set.
	b.Code[4].Target, b.Exits = 0x1000, nil
	if err := c.Chain(b, 4, a); err == nil {
		t.Errorf("chain at an untabled exit accepted")
	}
}

func TestCapacityFlush(t *testing.T) {
	c := New(25)
	c.Insert(mkBlock(0x1000, 10))
	c.Insert(mkBlock(0x2000, 10))
	if c.Flushes != 0 {
		t.Fatalf("premature flush")
	}
	flushed := c.Insert(mkBlock(0x3000, 10))
	if !flushed || c.Flushes != 1 {
		t.Fatalf("expected capacity flush")
	}
	if c.Len() != 1 || c.Used() != 10 {
		t.Errorf("after flush: len=%d used=%d", c.Len(), c.Used())
	}
	if _, ok := c.Lookup(0x1000); ok {
		t.Errorf("stale entry after flush")
	}
}

func TestExitLookup(t *testing.T) {
	b := mkBlock(0x1000, 5)
	b.Exits = []Exit{{Idx: 2}, {Idx: 4}}
	if b.Exit(2) != &b.Exits[0] || b.Exit(4) != &b.Exits[1] || b.Exit(3) != nil {
		t.Errorf("lookups %p %p %p in %p", b.Exit(2), b.Exit(4), b.Exit(3), b.Exits)
	}
}

func TestBlocksEnumeration(t *testing.T) {
	c := New(1000)
	c.Insert(mkBlock(0x1000, 5))
	c.Insert(mkBlock(0x2000, 5))
	if len(c.Blocks()) != 2 {
		t.Errorf("blocks %d", len(c.Blocks()))
	}
}

func TestOversizeBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("oversized insert must panic")
		}
	}()
	c := New(5)
	c.Insert(mkBlock(0x1000, 10))
}

// TestInsertHoldsBranchesForward: a branch that goes backward, or
// forward to or past the block's end, is refused; one to the next
// instruction or to the last one is not. A pass through a resident
// block therefore retires each instruction at most once, which is what
// a Tally counts.
func TestInsertHoldsBranchesForward(t *testing.T) {
	for imm, ok := range map[int32]bool{-1: false, -4: false, 0: true, 7: true, 8: false, 20: false} {
		b := mkBlock(0x1000, 10)
		b.Code[1] = host.Inst{Op: host.BEQZ, Ra: 3, Imm: imm}
		c := New(0)
		func() {
			defer func() {
				if panicked := recover() != nil; panicked == ok {
					t.Errorf("branch at 1 of 10 jumping %+d: panicked %v", imm, panicked)
				}
			}()
			c.Insert(b)
		}()
		if _, resident := c.Lookup(0x1000); resident != ok {
			t.Errorf("branch jumping %+d: resident %v", imm, resident)
		}
	}
}
