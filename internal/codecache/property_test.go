package codecache

import (
	"math/rand"
	"testing"

	"darco/internal/host"
)

// TestCacheInvariantsUnderRandomOps drives random insert / invalidate /
// chain / flush sequences and checks structural invariants after every
// operation:
//
//   - Used() equals the sum of resident block sizes,
//   - every Lookup result is resident under its own entry,
//   - an exit's Next is set exactly while its instruction is CHAINED,
//     and then names a resident block (invalidation must unchain) whose
//     entry is the exit's target,
//   - Len() matches the number of resident blocks.
func TestCacheInvariantsUnderRandomOps(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := New(2000)
		var live []*Block

		check := func(step int) {
			t.Helper()
			sum := 0
			for _, b := range c.Blocks() {
				sum += len(b.Code)
			}
			if sum != c.Used() {
				t.Fatalf("seed %d step %d: used %d, blocks sum %d", seed, step, c.Used(), sum)
			}
			if len(c.Blocks()) != c.Len() {
				t.Fatalf("seed %d step %d: len mismatch", seed, step)
			}
			for _, b := range c.Blocks() {
				got, ok := c.Lookup(b.Entry)
				if !ok || got.ID != b.ID {
					t.Fatalf("seed %d step %d: block %d not reachable via its entry", seed, step, b.ID)
				}
				for i := range b.Code {
					if b.Code[i].Op == host.CHAINED && b.Exit(i) == nil {
						t.Fatalf("seed %d step %d: block %d chains untabled instruction %d", seed, step, b.ID, i)
					}
				}
				for i := range b.Exits {
					e := &b.Exits[i]
					in := &b.Code[e.Idx]
					if (e.Next != nil) != (in.Op == host.CHAINED) {
						t.Fatalf("seed %d step %d: block %d exit %d is %v with Next %v", seed, step, b.ID, e.Idx, in.Op, e.Next)
					}
					if e.Next == nil {
						continue
					}
					if next, ok := c.Get(e.Next.ID); !ok || next != e.Next {
						t.Fatalf("seed %d step %d: block %d exit %d chains to block %d, not resident", seed, step, b.ID, e.Idx, e.Next.ID)
					}
					if e.Next.Entry != in.Target {
						t.Fatalf("seed %d step %d: block %d exit %d targets %#x, chains to entry %#x", seed, step, b.ID, e.Idx, in.Target, e.Next.Entry)
					}
				}
			}
		}

		for step := 0; step < 300; step++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4: // insert
				entry := uint32(0x1000 + 0x100*r.Intn(30))
				b := mkBlock(entry, 5+r.Intn(40))
				b.Code[len(b.Code)-1].Target = uint32(0x1000 + 0x100*r.Intn(30))
				if mid := r.Intn(len(b.Code) - 1); r.Intn(2) == 0 { // a side exit
					b.Code[mid] = host.Inst{Op: host.EXIT, Target: uint32(0x1000 + 0x100*r.Intn(30))}
					b.Exits = append([]Exit{{Idx: mid}}, b.Exits...)
				}
				c.Insert(b)
				live = append(live, b)
			case 5, 6: // chain a random exit if possible
				if len(live) == 0 {
					break
				}
				src := live[r.Intn(len(live))]
				if _, ok := c.Get(src.ID); !ok {
					break
				}
				site := src.Exits[r.Intn(len(src.Exits))].Idx
				if src.Code[site].Op != host.EXIT {
					break // already chained
				}
				if dst, ok := c.Lookup(src.Code[site].Target); ok {
					if err := c.Chain(src, site, dst); err != nil {
						t.Fatalf("seed %d step %d: chain: %v", seed, step, err)
					}
				}
			case 7, 8: // invalidate
				if len(live) == 0 {
					break
				}
				b := live[r.Intn(len(live))]
				if _, ok := c.Get(b.ID); ok {
					c.Invalidate(b)
				}
			case 9: // flush
				if r.Intn(4) == 0 {
					c.Flush()
				}
			}
			check(step)
		}
	}
}
