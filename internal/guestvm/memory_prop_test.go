package guestvm

import (
	"math/rand"
	"testing"
)

// refMemory is the seed's map-based memory, kept as the executable
// specification the two-level implementation is tested against.
type refMemory struct {
	pages  map[uint32]*[PageSize]byte
	strict bool
}

func newRefMemory(strict bool) *refMemory {
	return &refMemory{pages: make(map[uint32]*[PageSize]byte), strict: strict}
}

func (m *refMemory) page(addr uint32) (*[PageSize]byte, bool) {
	pn := addr >> PageShift
	if p, ok := m.pages[pn]; ok {
		return p, true
	}
	if m.strict {
		return nil, false
	}
	p := new([PageSize]byte)
	m.pages[pn] = p
	return p, true
}

func (m *refMemory) load8(addr uint32) (uint8, bool) {
	p, ok := m.page(addr)
	if !ok {
		return 0, false
	}
	return p[addr&(PageSize-1)], true
}

func (m *refMemory) store8(addr uint32, v uint8) bool {
	p, ok := m.page(addr)
	if !ok {
		return false
	}
	p[addr&(PageSize-1)] = v
	return true
}

func (m *refMemory) install(pageAddr uint32, data *[PageSize]byte) {
	cp := *data
	m.pages[pageAddr>>PageShift] = &cp
}

// TestMemoryMatchesMapReference drives the two-level memory and the
// map-based reference through random load/store/straddle/install
// sequences in both strictness modes and requires observational
// equality, including fault behaviour and page accounting.
func TestMemoryMatchesMapReference(t *testing.T) {
	for _, strict := range []bool{false, true} {
		rng := rand.New(rand.NewSource(0xDA5C0))
		m := NewMemory(strict)
		ref := newRefMemory(strict)

		// Addresses cluster around a few page-straddling hot spots so
		// straddles and MRU switches happen constantly.
		bases := []uint32{0x0, 0x1000 - 2, 0x7FF0_0000 - 4, 0xFFFF_F000, 0x0010_0000}
		addr := func() uint32 {
			b := bases[rng.Intn(len(bases))]
			return b + uint32(rng.Intn(3*PageSize)) - PageSize/2
		}

		for i := 0; i < 200_000; i++ {
			a := addr()
			switch rng.Intn(11) {
			case 0, 1:
				got, err := m.Load8(a)
				want, ok := ref.load8(a)
				if (err == nil) != ok || got != want {
					t.Fatalf("strict=%v op %d: Load8(%#x) = %v,%v want %v,%v", strict, i, a, got, err, want, ok)
				}
			case 2, 3:
				v := uint8(rng.Intn(256))
				err := m.Store8(a, v)
				ok := ref.store8(a, v)
				if (err == nil) != ok {
					t.Fatalf("strict=%v op %d: Store8(%#x) err=%v ref ok=%v", strict, i, a, err, ok)
				}
			case 4:
				got, err := m.Load32(a)
				var want uint32
				ok := true
				for k := 3; k >= 0; k-- {
					b, o := ref.load8(a + uint32(k))
					if !o {
						ok = false
						break
					}
					want = want<<8 | uint32(b)
				}
				if (err == nil) != ok || (ok && got != want) {
					t.Fatalf("strict=%v op %d: Load32(%#x) = %#x,%v want %#x,%v", strict, i, a, got, err, want, ok)
				}
				if err != nil {
					pf := err.(*PageFaultError)
					if pf.Addr>>PageShift != pf.Page>>PageShift {
						t.Fatalf("fault addr %#x outside page %#x", pf.Addr, pf.Page)
					}
				}
			case 5:
				v := rng.Uint32()
				err := m.Store32(a, v)
				// The reference applies byte stores until the first fault,
				// mirroring the straddle semantics of the real memory.
				ok := true
				if a&(PageSize-1) <= PageSize-4 {
					if _, o := ref.load8(a); !o {
						ok = false
					} else {
						for k := 0; k < 4; k++ {
							ref.store8(a+uint32(k), uint8(v>>(8*k)))
						}
					}
				} else {
					for k := 0; k < 4; k++ {
						if !ref.store8(a+uint32(k), uint8(v>>(8*k))) {
							ok = false
							break
						}
					}
				}
				if (err == nil) != ok {
					t.Fatalf("strict=%v op %d: Store32(%#x) err=%v ref ok=%v", strict, i, a, err, ok)
				}
			case 6:
				got, err := m.Load64(a)
				var want uint64
				ok := true
				for k := 7; k >= 0; k-- {
					b, o := ref.load8(a + uint32(k))
					if !o {
						ok = false
						break
					}
					want = want<<8 | uint64(b)
				}
				if (err == nil) != ok || (ok && got != want) {
					t.Fatalf("strict=%v op %d: Load64(%#x) = %#x,%v want %#x,%v", strict, i, a, got, err, want, ok)
				}
			case 10:
				// Byte stores until the first fault describe Store64 too:
				// a half that lies within one page is all-or-nothing there.
				v := rng.Uint64()
				err := m.Store64(a, v)
				ok := true
				for k := 0; k < 8 && ok; k++ {
					ok = ref.store8(a+uint32(k), uint8(v>>(8*k)))
				}
				if (err == nil) != ok {
					t.Fatalf("strict=%v op %d: Store64(%#x) err=%v ref ok=%v", strict, i, a, err, ok)
				}
				if pf, isPF := err.(*PageFaultError); isPF && a&(PageSize-1) <= PageSize-8 && pf.Addr != a {
					t.Fatalf("strict=%v op %d: Store64(%#x) within a page faults at %#x", strict, i, a, pf.Addr)
				}
			case 7:
				var page [PageSize]byte
				for k := 0; k < 16; k++ {
					page[rng.Intn(PageSize)] = uint8(rng.Intn(256))
				}
				pa := a &^ uint32(PageSize-1)
				m.InstallPage(pa, &page)
				ref.install(pa, &page)
			case 8:
				if m.HasPage(a) != func() bool { _, ok := ref.pages[a>>PageShift]; return ok }() {
					t.Fatalf("strict=%v op %d: HasPage(%#x) mismatch", strict, i, a)
				}
			case 9:
				if m.PageCount() != len(ref.pages) {
					t.Fatalf("strict=%v op %d: PageCount %d want %d", strict, i, m.PageCount(), len(ref.pages))
				}
			}
		}

		// Final sweep: all mapped pages byte-identical, page list sorted.
		pages := m.Pages()
		if len(pages) != len(ref.pages) {
			t.Fatalf("strict=%v: %d pages want %d", strict, len(pages), len(ref.pages))
		}
		for i := 1; i < len(pages); i++ {
			if pages[i-1] >= pages[i] {
				t.Fatalf("Pages() not sorted: %#x >= %#x", pages[i-1], pages[i])
			}
		}
		for _, pa := range pages {
			rp, ok := ref.pages[pa>>PageShift]
			if !ok {
				t.Fatalf("strict=%v: page %#x not in reference", strict, pa)
			}
			mp, err := m.Page(pa)
			if err != nil {
				t.Fatal(err)
			}
			if *mp != *rp {
				t.Fatalf("strict=%v: page %#x content mismatch", strict, pa)
			}
		}

		// Clone equality and independence.
		cl := m.Clone()
		if ok, at := cl.Equal(m); !ok {
			t.Fatalf("strict=%v: clone differs at %#x", strict, at)
		}
		if len(pages) > 0 {
			target := pages[0]
			v, _ := cl.Load8(target)
			cl.Store8(target, v+1)
			if ok, _ := cl.Equal(m); ok {
				t.Fatalf("strict=%v: clone aliases original", strict)
			}
		}
	}
}
