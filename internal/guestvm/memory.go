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

// pageGroup is one slab of the two-level table: groupSize page pointers
// and, beside each, whether the page holds guest code (see markCode).
type pageGroup struct {
	pages [groupSize]*[PageSize]byte
	code  [groupSize]bool
}

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

// CodeWriteError reports a store to guest code: a page a DecodeCache
// has decoded a block from. Guest code is immutable (see DecodeCache),
// so the store is refused and nothing on that page is written.
type CodeWriteError struct {
	Addr uint32 // the first byte of the store that lies on the code page
}

func (e *CodeWriteError) Error() string {
	return fmt.Sprintf("store to guest code at %#x", e.Addr)
}

// Memory is a sparse paged guest memory. The zero value is ready to use.
// With Strict unset, touching an unmapped page allocates it zero-filled
// (authoritative behaviour). With Strict set, loads and stores to
// unmapped pages return *PageFaultError (co-designed behaviour). A
// store to a page that holds guest code returns *CodeWriteError in
// either mode.
//
// Pages live in a two-level table (group directory of page-pointer
// slabs) fronted by one-entry MRU caches, so the emulation hot loops
// pay index arithmetic instead of map hashing per access. Loads and
// stores have an MRU page each; the store MRU never holds a code page,
// so a store that hits it is checked by that one compare.
type Memory struct {
	groups [numGroups]*pageGroup
	count  int

	// MRU page caches: a nil page means empty, so page number 0 needs
	// no sentinel.
	mruPN uint32
	mru   *[PageSize]byte
	stPN  uint32
	st    *[PageSize]byte

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
	if p := m.lookupPage(pn); p != nil {
		m.mruPN, m.mru = pn, p
		return p, nil
	}
	if m.Strict {
		return nil, &PageFaultError{Addr: addr, Page: pn << PageShift}
	}
	p := new([PageSize]byte)
	m.setPage(pn, p)
	m.mruPN, m.mru = pn, p
	return p, nil
}

// storePage returns the page a store to addr writes: the page as page
// returns it, unless it holds guest code.
func (m *Memory) storePage(addr uint32) (*[PageSize]byte, error) {
	pn := addr >> PageShift
	if m.st != nil && m.stPN == pn {
		return m.st, nil
	}
	return m.storePageSlow(addr, pn)
}

// storePageSlow is the code check and page behind the store MRU.
func (m *Memory) storePageSlow(addr, pn uint32) (*[PageSize]byte, error) {
	if g := m.groups[pn>>groupBits]; g != nil && g.code[pn&groupMask] {
		return nil, &CodeWriteError{Addr: addr}
	}
	p, err := m.page(addr)
	if err != nil {
		return nil, err
	}
	m.stPN, m.st = pn, p
	return p, nil
}

// markCode makes code of every mapped page holding a byte of
// [lo, hi), none when lo == hi: from now on a store to one of them
// returns *CodeWriteError. A page it marks leaves the store MRU.
func (m *Memory) markCode(lo, hi uint32) {
	for a := lo; lo != hi; a += PageSize {
		pn := a >> PageShift
		if g := m.groups[pn>>groupBits]; g != nil {
			g.code[pn&groupMask] = true
		}
		if m.stPN == pn {
			m.st = nil
		}
		if pn == (hi-1)>>PageShift {
			return
		}
	}
}

// setPage installs p as page pn, allocating its group on demand.
func (m *Memory) setPage(pn uint32, p *[PageSize]byte) {
	g := m.groups[pn>>groupBits]
	if g == nil {
		g = new(pageGroup)
		m.groups[pn>>groupBits] = g
	}
	if g.pages[pn&groupMask] == nil {
		m.count++
	}
	g.pages[pn&groupMask] = p
}

// lookupPage returns page pn if mapped, without allocating or faulting.
func (m *Memory) lookupPage(pn uint32) *[PageSize]byte {
	g := m.groups[pn>>groupBits]
	if g == nil {
		return nil
	}
	return g.pages[pn&groupMask]
}

// forEachPage visits every mapped page in ascending page-number order.
func (m *Memory) forEachPage(f func(pn uint32, p *[PageSize]byte)) {
	for gi, g := range m.groups {
		if g == nil {
			continue
		}
		for pi, p := range g.pages {
			if p != nil {
				f(uint32(gi)<<groupBits|uint32(pi), p)
			}
		}
	}
}

// Clone deep-copies the memory's content, no code marks, for the debug
// toolchain's replay.
func (m *Memory) Clone() *Memory {
	out := NewMemory(m.Strict)
	m.forEachPage(func(pn uint32, p *[PageSize]byte) {
		cp := *p
		out.setPage(pn, &cp)
	})
	return out
}

// InstallPage maps a page image at the page containing addr. An already
// mapped page is overwritten in place, code or not.
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
	p, err := m.storePage(addr)
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

// Store32 implements guest.Memory. A store that straddles pages is
// written byte by byte: the bytes before a page that refuses it stay
// written.
func (m *Memory) Store32(addr uint32, v uint32) error {
	if addr&(PageSize-1) <= PageSize-4 {
		p, err := m.storePage(addr)
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

// Store64 implements guest.Memory, as two Store32 when it straddles.
func (m *Memory) Store64(addr uint32, v uint64) error {
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		p, err := m.storePage(addr)
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

// StoreCheck returns the error a one-byte store to addr would return,
// writing nothing: nil, *PageFaultError or *CodeWriteError.
func (m *Memory) StoreCheck(addr uint32) error {
	_, err := m.storePage(addr)
	return err
}

// LoadImage stores every segment of an image.
func (m *Memory) LoadImage(im *guest.Image) error {
	for _, s := range im.Segments {
		for i, v := range s.Data {
			if err := m.Store8(s.Addr+uint32(i), v); err != nil {
				return err
			}
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
