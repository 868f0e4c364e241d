// Package guestvm implements the paper's "x86 component": the
// authoritative guest functional emulator. It runs the unmodified guest
// binary, owns the authoritative architectural and memory state, services
// system calls, and answers the controller's page requests so the
// co-designed component can lazily populate its emulated memory.
package guestvm

import (
	"encoding/binary"
	"fmt"

	"darco/internal/guest"
)

// PageSize is the guest page granularity used for controller transfers.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// The 20-bit page number space is resolved through a two-level table:
// the top groupBits select a lazily allocated group of groupSize page
// pointers. Index arithmetic replaces the per-access map hashing the
// seed paid on every guest byte touched.
const (
	groupBits = 10
	groupSize = 1 << groupBits
	groupMask = groupSize - 1
	numGroups = 1 << (32 - PageShift - groupBits)
)

// PageFaultError reports an access to a page the memory does not hold.
// The co-designed component surfaces it to the controller as a data
// request; the authoritative memory never returns it (it allocates
// zero-filled pages on demand).
type PageFaultError struct {
	Addr uint32
	Page uint32
}

func (e *PageFaultError) Error() string {
	return fmt.Sprintf("page fault at %#x (page %#x)", e.Addr, e.Page)
}

// Memory is a sparse paged guest memory. The zero value is ready to use.
// With Strict unset, touching an unmapped page allocates it zero-filled
// (authoritative behaviour). With Strict set, loads and stores to
// unmapped pages return *PageFaultError (co-designed behaviour).
//
// Pages live in a two-level table (group directory of page-pointer
// slabs) fronted by a one-entry MRU cache, so the emulation hot loops
// pay index arithmetic instead of map hashing per access.
type Memory struct {
	groups [numGroups][]*[PageSize]byte
	count  int

	// MRU page cache: mru is nil when the cache is empty, so page
	// number 0 needs no sentinel.
	mruPN uint32
	mru   *[PageSize]byte

	Strict bool
}

// NewMemory returns an empty memory.
func NewMemory(strict bool) *Memory {
	return &Memory{Strict: strict}
}

// page returns the page containing addr, faulting or allocating per mode.
func (m *Memory) page(addr uint32) (*[PageSize]byte, error) {
	pn := addr >> PageShift
	if m.mru != nil && m.mruPN == pn {
		return m.mru, nil
	}
	return m.pageSlow(addr, pn)
}

// pageSlow is the two-level walk behind the MRU cache.
func (m *Memory) pageSlow(addr, pn uint32) (*[PageSize]byte, error) {
	g := m.groups[pn>>groupBits]
	if g != nil {
		if p := g[pn&groupMask]; p != nil {
			m.mruPN, m.mru = pn, p
			return p, nil
		}
	}
	if m.Strict {
		return nil, &PageFaultError{Addr: addr, Page: pn << PageShift}
	}
	p := new([PageSize]byte)
	m.setPage(pn, p)
	m.mruPN, m.mru = pn, p
	return p, nil
}

// setPage installs p as page pn, allocating its group on demand.
func (m *Memory) setPage(pn uint32, p *[PageSize]byte) {
	g := m.groups[pn>>groupBits]
	if g == nil {
		g = make([]*[PageSize]byte, groupSize)
		m.groups[pn>>groupBits] = g
	}
	if g[pn&groupMask] == nil {
		m.count++
	}
	g[pn&groupMask] = p
}

// lookupPage returns page pn if mapped, without allocating or faulting.
func (m *Memory) lookupPage(pn uint32) *[PageSize]byte {
	g := m.groups[pn>>groupBits]
	if g == nil {
		return nil
	}
	return g[pn&groupMask]
}

// forEachPage visits every mapped page in ascending page-number order.
func (m *Memory) forEachPage(f func(pn uint32, p *[PageSize]byte)) {
	for gi := range m.groups {
		g := m.groups[gi]
		if g == nil {
			continue
		}
		for pi, p := range g {
			if p != nil {
				f(uint32(gi)<<groupBits|uint32(pi), p)
			}
		}
	}
}

// Clone deep-copies the memory (debug toolchain replay).
func (m *Memory) Clone() *Memory {
	out := NewMemory(m.Strict)
	m.forEachPage(func(pn uint32, p *[PageSize]byte) {
		cp := *p
		out.setPage(pn, &cp)
	})
	return out
}

// InstallPage maps a page image at the page containing addr. An already
// mapped page is overwritten in place.
func (m *Memory) InstallPage(pageAddr uint32, data *[PageSize]byte) {
	pn := pageAddr >> PageShift
	if p := m.lookupPage(pn); p != nil {
		*p = *data
		return
	}
	cp := *data
	m.setPage(pn, &cp)
}

// Page returns the page containing addr: the memory's own storage, not
// a copy. A non-strict memory allocates a missing page, a strict one
// faults. Callers compare it or copy it out (InstallPage copies).
func (m *Memory) Page(addr uint32) (*[PageSize]byte, error) { return m.page(addr) }

// HasPage reports whether the page containing addr is mapped.
func (m *Memory) HasPage(addr uint32) bool {
	return m.lookupPage(addr>>PageShift) != nil
}

// PageCount reports the number of mapped pages.
func (m *Memory) PageCount() int { return m.count }

// Pages returns the sorted list of mapped page base addresses.
func (m *Memory) Pages() []uint32 {
	out := make([]uint32, 0, m.count)
	m.forEachPage(func(pn uint32, _ *[PageSize]byte) {
		out = append(out, pn<<PageShift)
	})
	return out
}

// Load8 implements guest.Memory.
func (m *Memory) Load8(addr uint32) (uint8, error) {
	p, err := m.page(addr)
	if err != nil {
		return 0, err
	}
	return p[addr&(PageSize-1)], nil
}

// Store8 implements guest.Memory.
func (m *Memory) Store8(addr uint32, v uint8) error {
	p, err := m.page(addr)
	if err != nil {
		return err
	}
	p[addr&(PageSize-1)] = v
	return nil
}

// Load32 implements guest.Memory. Accesses may straddle pages.
func (m *Memory) Load32(addr uint32) (uint32, error) {
	if addr&(PageSize-1) <= PageSize-4 {
		p, err := m.page(addr)
		if err != nil {
			return 0, err
		}
		off := addr & (PageSize - 1)
		return binary.LittleEndian.Uint32(p[off : off+4]), nil
	}
	var b [4]byte
	for i := range b {
		v, err := m.Load8(addr + uint32(i))
		if err != nil {
			return 0, err
		}
		b[i] = v
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// Store32 implements guest.Memory.
func (m *Memory) Store32(addr uint32, v uint32) error {
	if addr&(PageSize-1) <= PageSize-4 {
		p, err := m.page(addr)
		if err != nil {
			return err
		}
		off := addr & (PageSize - 1)
		binary.LittleEndian.PutUint32(p[off:off+4], v)
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	for i := range b {
		if err := m.Store8(addr+uint32(i), b[i]); err != nil {
			return err
		}
	}
	return nil
}

// Load64 implements guest.Memory.
func (m *Memory) Load64(addr uint32) (uint64, error) {
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		p, err := m.page(addr)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(p[off : off+8]), nil
	}
	lo, err := m.Load32(addr)
	if err != nil {
		return 0, err
	}
	hi, err := m.Load32(addr + 4)
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// Store64 implements guest.Memory.
func (m *Memory) Store64(addr uint32, v uint64) error {
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		p, err := m.page(addr)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(p[off:off+8], v)
		return nil
	}
	if err := m.Store32(addr, uint32(v)); err != nil {
		return err
	}
	return m.Store32(addr+4, uint32(v>>32))
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		v, err := m.Load8(addr + uint32(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// WriteBytes stores b starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	for i, v := range b {
		if err := m.Store8(addr+uint32(i), v); err != nil {
			return err
		}
	}
	return nil
}

// LoadImage installs every segment of an image.
func (m *Memory) LoadImage(im *guest.Image) error {
	for _, s := range im.Segments {
		if err := m.WriteBytes(s.Addr, s.Data); err != nil {
			return err
		}
	}
	return nil
}

// Equal reports whether two memories hold identical content, treating
// unmapped pages as zero. It returns the first differing address when
// not equal.
func (m *Memory) Equal(o *Memory) (bool, uint32) {
	check := func(a, b *Memory) (ok bool, diff uint32) {
		ok = true
		a.forEachPage(func(pn uint32, p *[PageSize]byte) {
			if !ok {
				return
			}
			q := b.lookupPage(pn)
			if q == nil {
				for i, v := range p {
					if v != 0 {
						ok, diff = false, pn<<PageShift+uint32(i)
						return
					}
				}
				return
			}
			if *p != *q {
				for i := range p {
					if p[i] != q[i] {
						ok, diff = false, pn<<PageShift+uint32(i)
						return
					}
				}
			}
		})
		return ok, diff
	}
	if ok, addr := check(m, o); !ok {
		return false, addr
	}
	return check(o, m)
}
