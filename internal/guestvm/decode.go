package guestvm

import "darco/internal/guest"

// DecodeCache memoizes instruction decoding per code page: a page keeps
// a slot number per byte offset and the decoded instructions themselves
// in fixed-size chunks allocated as instructions arrive, so its cost is
// the 8 KB index plus 32 bytes per instruction actually decoded (a flat
// array of one slot per offset was 135 KB a page, most of it never a
// decode boundary). A one-entry MRU page cache fronts the page map. Both
// functional emulators fetch through one — the seed paid a Go map lookup
// per interpreted instruction instead.
//
// The cache only stores; the owner decodes (the two emulators differ in
// how they read instruction bytes and report faults). The zero value is
// ready to use.
type DecodeCache struct {
	pages map[uint32]*decodedPage

	mruPN uint32
	mru   *decodedPage
}

// decodeChunk is how many instructions one storage chunk holds.
const decodeChunk = 256

// decodedPage holds the decoded instructions starting inside one guest
// page. An instruction may extend into the following page; it is cached
// under the page its first byte lives in, which is why invalidating a
// page must also drop the preceding page's entries.
type decodedPage struct {
	slot   [PageSize]uint16 // 1 + ordinal of the instruction starting at the offset; 0 = none
	n      int              // instructions stored
	chunks [PageSize / decodeChunk]*[decodeChunk]guest.Inst
}

// page returns the page numbered pn through the MRU entry, or nil.
func (d *DecodeCache) page(pn uint32) *decodedPage {
	if d.mru != nil && d.mruPN == pn {
		return d.mru
	}
	pd := d.pages[pn]
	if pd != nil {
		d.mruPN, d.mru = pn, pd
	}
	return pd
}

// Lookup returns the cached decode of the instruction at pc.
func (d *DecodeCache) Lookup(pc uint32) (guest.Inst, bool) {
	if in := d.LookupPtr(pc); in != nil {
		return *in, true
	}
	return guest.Inst{}, false
}

// LookupPtr returns a pointer to the cached decode of the instruction
// at pc, or nil when absent. The pointee must not be mutated. The
// pointer stays valid, and keeps naming the instruction at pc, across
// later Inserts (chunks are never reallocated); after InvalidatePage it
// refers to the dropped decode.
func (d *DecodeCache) LookupPtr(pc uint32) *guest.Inst {
	pd := d.page(pc >> PageShift)
	if pd == nil {
		return nil
	}
	s := pd.slot[pc&(PageSize-1)]
	if s == 0 {
		return nil
	}
	return &pd.chunks[(s-1)/decodeChunk][(s-1)%decodeChunk]
}

// Insert caches the decode of the instruction at pc.
func (d *DecodeCache) Insert(pc uint32, in guest.Inst) {
	if p := d.LookupPtr(pc); p != nil {
		*p = in
		return
	}
	pn := pc >> PageShift
	pd := d.page(pn)
	if pd == nil {
		if d.pages == nil {
			d.pages = make(map[uint32]*decodedPage)
		}
		pd = new(decodedPage)
		d.pages[pn] = pd
		d.mruPN, d.mru = pn, pd
	}
	c := &pd.chunks[pd.n/decodeChunk]
	if *c == nil {
		*c = new([decodeChunk]guest.Inst)
	}
	(*c)[pd.n%decodeChunk] = in
	pd.n++
	pd.slot[pc&(PageSize-1)] = uint16(pd.n)
}

// InvalidatePage drops every cached decode for the page containing addr
// and for the preceding page (whose final instructions may straddle into
// the invalidated one). The co-designed component calls it when the
// controller installs or rewrites a page.
func (d *DecodeCache) InvalidatePage(addr uint32) {
	pn := addr >> PageShift
	delete(d.pages, pn)
	delete(d.pages, pn-1)
	d.mru = nil
}
