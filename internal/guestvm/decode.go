package guestvm

import (
	"fmt"

	"darco/internal/guest"
)

// DecodeCache is one emulator's guest front end: its instruction fetch
// and its decoded-block cache. Both functional emulators own one — the
// authoritative VM and the TOL's interpreter — and the two differ only
// in how they use it: the VM decodes a block when Run first arrives at
// it, the TOL records a block while it first executes it.
//
// Decoded instructions are memoized per code page: a page keeps a slot
// number per byte offset and the decoded instructions themselves in
// fixed-size chunks allocated as instructions arrive, so its cost is
// the 8 KB index plus 32 bytes per instruction actually decoded (a flat
// array of one slot per offset was 135 KB a page, most of it never a
// decode boundary). A one-entry MRU page cache fronts the page map.
//
// Decoded blocks live in a map keyed by entry pc. InvalidatePage drops
// both the decodes and the blocks a page write can make stale. The zero
// value is ready to use.
type DecodeCache struct {
	pages map[uint32]*decodedPage

	mruPN uint32
	mru   *decodedPage

	blocks map[uint32]*Block
}

// MaxBlockInsns caps a decoded block. The VM cuts a longer basic block
// into pieces of at most this many instructions; the TOL does not cache
// one.
const MaxBlockInsns = 4096

// Block is one decoded basic block: Insts ends with the block's
// terminator, SYSCALL included. A block the VM decoded may instead end
// at the MaxBlockInsns cap or just before an undecodable instruction.
type Block struct {
	Insts []guest.Inst

	pc, end uint32 // guest bytes [pc, end) the instructions were decoded from

	// succ are the two blocks last seen to follow this one, most recent
	// first: both ways of a conditional branch stay linked. A link is
	// taken only when its pc is where control went; an indirect branch
	// with more targets goes back to the map.
	succ [2]*Block
}

// UndecodableError reports guest bytes that decode to no instruction.
// Each emulator prefixes its text with its own name.
type UndecodableError uint32

func (e UndecodableError) Error() string {
	return fmt.Sprintf("undecodable instruction at %#x", uint32(e))
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

// Fetch returns the decode of the instruction at pc and whether it was
// cached. On a miss it reads exactly the instruction's bytes from mem:
// the opcode, then as many more as its form has. A byte mem cannot
// supply returns mem's error; bytes that decode to nothing return an
// UndecodableError.
func (d *DecodeCache) Fetch(mem *Memory, pc uint32) (in *guest.Inst, hit bool, err error) {
	if in := d.LookupPtr(pc); in != nil {
		return in, true, nil
	}
	var raw [10]byte
	if raw[0], err = mem.Load8(pc); err != nil {
		return nil, false, err
	}
	n := guest.FormLen(guest.Op(raw[0]).Desc().Form)
	for i := 1; i < n; i++ {
		if raw[i], err = mem.Load8(pc + uint32(i)); err != nil {
			return nil, false, err
		}
	}
	dec, k := guest.Decode(raw[:n])
	if k == 0 {
		return nil, false, UndecodableError(pc)
	}
	return d.Insert(pc, dec), false, nil
}

// Insert caches the decode of the instruction at pc and returns where
// it is stored.
func (d *DecodeCache) Insert(pc uint32, in guest.Inst) *guest.Inst {
	if p := d.LookupPtr(pc); p != nil {
		*p = in
		return p
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
	p := &(*c)[pd.n%decodeChunk]
	*p = in
	pd.n++
	pd.slot[pc&(PageSize-1)] = uint16(pd.n)
	return p
}

// Block returns the cached block whose entry is pc, or nil. prev, when
// non-nil, is the block that ran just before: its links are tried
// before the map, and a block found in the map becomes its most recent
// link.
func (d *DecodeCache) Block(prev *Block, pc uint32) *Block {
	if prev != nil {
		if b := prev.succ[0]; b != nil && b.pc == pc {
			return b
		}
		if b := prev.succ[1]; b != nil && b.pc == pc {
			return b
		}
	}
	b := d.blocks[pc]
	if b != nil && prev != nil {
		prev.succ[1], prev.succ[0] = prev.succ[0], b
	}
	return b
}

// AddBlock caches a copy of insts, decoded from the guest bytes [pc,
// end), as the block entered at pc and returns it. A block longer than
// MaxBlockInsns is not cached: AddBlock returns nil.
func (d *DecodeCache) AddBlock(pc, end uint32, insts []guest.Inst) *Block {
	if len(insts) > MaxBlockInsns {
		return nil
	}
	if d.blocks == nil {
		d.blocks = make(map[uint32]*Block)
	}
	b := &Block{Insts: append([]guest.Inst(nil), insts...), pc: pc, end: end}
	d.blocks[pc] = b
	return b
}

// InvalidatePage drops what a write to the page containing addr can
// make stale: the cached decodes of that page and of the preceding page
// (whose final instructions may straddle into it), and every block
// whose bytes overlap the page. It also clears every block's links, so
// none can reach a dropped block. The co-designed component calls it
// when the controller rewrites a page it already holds; a first install
// has nothing to drop.
func (d *DecodeCache) InvalidatePage(addr uint32) {
	pn := addr >> PageShift
	delete(d.pages, pn)
	delete(d.pages, pn-1)
	d.mru = nil

	lo := pn << PageShift
	hi := lo + PageSize
	if hi < lo { // top-of-address-space page
		hi = ^uint32(0)
	}
	for pc, b := range d.blocks {
		if b.pc < hi && lo < b.end {
			delete(d.blocks, pc)
		}
		b.succ = [2]*Block{}
	}
}
