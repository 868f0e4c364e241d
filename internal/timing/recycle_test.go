package timing

import (
	"reflect"
	"testing"

	"darco/internal/host"
	"darco/internal/hostvm"
)

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

// TestRecycledCoreIsFresh feeds a core, releases it, and builds the
// next core on its tables, at the same geometry, a smaller and a larger
// one: the recycled core must equal one built on new tables — every
// structure, array and counter — and go on exactly as it does over the
// same stream. A predictor that is not refilled, a cache that keeps
// the line it placed last, or an array that is not zeroed differs.
func TestRecycledCoreIsFresh(t *testing.T) {
	small := DefaultConfig()
	small.L2.Sets, small.L1D.Ways, small.BPred.GShareBits, small.IQSize, small.SimpleUnits = 256, 2, 8, 8, 1
	big := DefaultConfig()
	big.L2.Sets, big.L1I.Ways, big.BPred.BTBEntries, big.PrefetchEntries, big.ComplexUnits = 4096, 8, 4096, 256, 2
	for _, tc := range []struct {
		name       string
		used, next Config
	}{
		{"same", DefaultConfig(), DefaultConfig()},
		{"smaller", DefaultConfig(), small},
		{"larger", small, big},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for ok := true; ok; _, ok = tableFree.Get() {
			}
			fresh := New(tc.next)
			used := New(tc.used)
			for i := range 60000 {
				used.Consume(mixedEvent(i))
			}
			used.AddTOL(1000)
			tabs := used.tabs
			used.Release()
			if !reflect.DeepEqual(*used, Core{}) {
				t.Error("a released core is not zero")
			}
			used.Release()
			if n := tableFree.Len(); n != 1 {
				t.Fatalf("%d table sets on the free list after releasing one core twice, want 1", n)
			}
			got := New(tc.next)
			if got.tabs != tabs {
				t.Fatal("New did not take the released core's tables")
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Fatal("a core on recycled tables differs from one on new tables")
			}
			for i := range 60000 {
				got.Consume(mixedEvent(i))
				fresh.Consume(mixedEvent(i))
			}
			if got.Stats != fresh.Stats || got.Activity() != fresh.Activity() {
				t.Errorf("recycled core diverged over the same stream:\n got %+v %+v\nwant %+v %+v",
					got.Stats, got.Activity(), fresh.Stats, fresh.Activity())
			}
		})
	}
}

// TestChargedStatsIsAddTOL: charging TOL instructions onto a copy of
// the Stats gives, bit for bit, what AddTOL gives on the core, and
// leaves the core as it was.
func TestChargedStatsIsAddTOL(t *testing.T) {
	fed := func() *Core {
		c := New(DefaultConfig())
		for i := range 20000 {
			c.Consume(mixedEvent(i))
		}
		return c
	}
	core := fed()
	before := core.Stats
	for _, n := range []uint64{0, 1, 7, 1_000_003} {
		ref := fed()
		ref.AddTOL(n)
		if got := core.ChargedStats(n); got != ref.Stats {
			t.Errorf("ChargedStats(%d) = %+v, AddTOL gives %+v", n, got, ref.Stats)
		}
		if core.Stats != before {
			t.Fatalf("ChargedStats(%d) changed the core", n)
		}
	}
}
