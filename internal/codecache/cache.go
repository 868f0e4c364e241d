// Package codecache implements the translation code cache of the
// co-designed processor: translated blocks indexed by guest entry PC,
// block chaining (including unchaining on invalidation), and
// capacity-triggered flushes.
package codecache

import (
	"fmt"

	"darco/internal/freelist"
	"darco/internal/host"
)

// BlockKind distinguishes the two translated region shapes.
type BlockKind uint8

// Block kinds.
const (
	KindBB BlockKind = iota
	KindSuperblock
)

func (k BlockKind) String() string {
	if k == KindSuperblock {
		return "superblock"
	}
	return "bb"
}

// Block is one translated region resident in the code cache.
type Block struct {
	ID         int
	Entry      uint32 // guest PC of the region's single entry
	Kind       BlockKind
	Code       []host.Inst
	UseAsserts bool // single-entry single-exit superblock (speculated control flow)

	GuestInsns int      // static guest instructions covered
	BBs        []uint32 // entry PCs of the constituent guest basic blocks

	// Exits is the block's exit table: one entry per exit site
	// (EXIT/CHAINED/EXITIND instruction), in ascending Idx order.
	Exits []Exit

	// Software profiling counters maintained by the translated code
	// (their cost is part of the emitted block, not TOL overhead).
	ExecCount   uint64
	AssertFails uint64
	SpecFails   uint64

	// Tally is the host VM's deferred retirement count of this block,
	// allocated on the block's first run under an attached histogram.
	Tally *Tally

	// incoming lists the chained exits of other blocks that target
	// this block, newest first, so invalidation can unchain them.
	incoming *exitRef
}

// ExitInfo is the translator-recorded retirement metadata of one exit.
type ExitInfo struct {
	GuestInsns int  // guest instructions retired on the path to this exit
	GuestBBs   int  // guest basic blocks retired on the path to this exit
	Taken      bool // exit corresponds to the taken branch direction
}

// Exit is one exit site of a block. Next is the resident successor while
// the instruction at Idx is CHAINED and nil while it is EXIT: Chain and
// Invalidate set and clear it where they patch the op, nothing else does.
// It is the only record of a chain.
type Exit struct {
	Idx   int // index of the exit instruction in Code
	Info  ExitInfo
	Count uint64 // software edge counter: executions leaving through here
	Next  *Block
}

// Exit returns the table entry of the exit instruction at instIdx, or
// nil. Blocks have a handful of exits, so this is a short scan.
func (b *Block) Exit(instIdx int) *Exit {
	for i := range b.Exits {
		if b.Exits[i].Idx == instIdx {
			return &b.Exits[i]
		}
	}
	return nil
}

// exitRef names one chained exit, the instruction at instIdx of block
// blockID, in its target's incoming list.
type exitRef struct {
	blockID int
	instIdx int
	next    *exitRef
}

// Cache is the code cache. Capacity is expressed in host instructions;
// exceeding it flushes the whole cache (the strategy production
// translators like Dynamo use, and the simplest correct one).
//
// Block code lives in chunks of ChunkInsts host instructions that Code
// hands out bump-allocated, a region of memory as a hardware code cache
// is; a block longer than a chunk gets an allocation of its own. The
// chunks are storage only: capacity and Used count the resident blocks'
// instructions, and the host addresses the timing simulator sees are
// synthetic (derived from block IDs), so where a block's code sits
// changes nothing simulated. NewBlock cuts the block records, exit
// tables and constituent entries from slabs of their own the same way,
// and Chain the entries of the blocks' incoming lists.
// Release hands every slab, and the block index, to free lists the next
// cache takes them from; Flush leaves the slabs to the collector, since
// a block it drops may still be referenced and must keep its own code
// and record.
type Cache struct {
	Capacity int

	// blocks[i] holds the block with ID base+i (IDs are dense and
	// monotonic; a flush advances base so IDs are never reused).
	// blocks and byEntry are the block index: nil until the first
	// insert takes one (see index).
	blocks  []*Block
	base    int
	nblocks int
	byEntry map[uint32]*Block
	used    int

	slabs slabs

	// Statistics.
	Inserts     uint64
	Invalidates uint64
	Flushes     uint64
	ChainsMade  uint64
	ChainsCut   uint64
}

// DefaultCapacity is the default code cache size in host instructions
// (roughly a 10 MB cache at 4 bytes per instruction).
const DefaultCapacity = 1 << 21

// New returns an empty cache with the given capacity (0 = default).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		Capacity: capacity,
		slabs: slabs{
			code:  freelist.NewSlab(&chunkFree, ChunkInsts),
			recs:  freelist.NewSlab(&recFree, 256),
			exits: freelist.NewSlab(&exitFree, 512),
			pcs:   freelist.NewSlab(&pcFree, 1024),
			refs:  freelist.NewSlab(&refFree, 256),
		},
	}
}

// ChunkInsts is the size of a code chunk in host instructions.
const ChunkInsts = 8192

// slabs are what a cache cuts its blocks from: their code, records,
// exit tables, constituent block entries and incoming chain entries.
type slabs struct {
	code  freelist.Slab[host.Inst]
	recs  freelist.Slab[Block]
	exits freelist.Slab[Exit]
	pcs   freelist.Slab[uint32]
	refs  freelist.Slab[exitRef]
}

// The chunks of released caches' slabs, and their block indexes
// (cleared): the blocks slice and byEntry map keep the room they grew.
var (
	chunkFree freelist.List[[]host.Inst]
	recFree   freelist.List[[]Block]
	exitFree  freelist.List[[]Exit]
	pcFree    freelist.List[[]uint32]
	refFree   freelist.List[[]exitRef]
	indexFree freelist.List[index]
)

// index is a cache's blocks and byEntry, handed from a released cache to
// the next one's first insert.
type index struct {
	blocks  []*Block
	byEntry map[uint32]*Block
}

// Code returns storage for a block of n host instructions, to be filled
// by the caller: the next n instructions of the newest chunk, or of a
// chunk taken from the free list (or allocated) when it has fewer left.
// The slice's capacity is n, so appending to it never writes into a
// neighbour's code.
func (c *Cache) Code(n int) []host.Inst { return c.slabs.code.Make(n) }

// NewBlock returns a zero block record with storage for its code (code
// instructions, see Code), its exit table (exits entries) and its
// constituent block entries (bbs), each cut from the cache's slabs, for
// the caller to fill.
func (c *Cache) NewBlock(code, exits, bbs int) *Block {
	b := c.slabs.recs.New()
	b.Code = c.Code(code)
	b.Exits = c.slabs.exits.Make(exits)
	b.BBs = c.slabs.pcs.Make(bbs)
	return b
}

// Release empties the cache and hands its slabs and block index to the
// free lists, for the next cache's blocks. The cache's blocks and every
// slice Code or NewBlock returned become invalid: their owner is done
// with them (a finished session's TOL). Releasing an empty or released
// cache does nothing.
func (c *Cache) Release() {
	c.drop()
	s := &c.slabs
	s.code.Release()
	s.recs.Release()
	s.exits.Release()
	s.pcs.Release()
	s.refs.Release()
	if c.byEntry != nil {
		indexFree.Put(index{c.blocks, c.byEntry})
		c.blocks, c.byEntry = nil, nil
	}
}

// Used reports resident host instructions.
func (c *Cache) Used() int { return c.used }

// Len reports the number of resident blocks.
func (c *Cache) Len() int { return c.nblocks }

// Lookup finds the block translated for guest PC entry.
func (c *Cache) Lookup(entry uint32) (*Block, bool) {
	b, ok := c.byEntry[entry]
	return b, ok
}

// Get returns a block by id.
func (c *Cache) Get(id int) (*Block, bool) {
	idx := id - c.base
	if idx < 0 || idx >= len(c.blocks) {
		return nil, false
	}
	b := c.blocks[idx]
	return b, b != nil
}

// Insert adds a block, replacing (and invalidating) any previous
// translation with the same guest entry — the paper's behaviour when a
// superblock supersedes the basic-block translation of its head. It
// reports whether a capacity flush occurred. A block larger than the
// cache, or with an intra-block branch that goes backward or leaves the
// block, is a translator bug: Insert panics on either.
func (c *Cache) Insert(b *Block) (flushed bool) {
	if len(b.Code) > c.Capacity {
		panic(fmt.Sprintf("codecache: block of %d insns exceeds capacity %d", len(b.Code), c.Capacity))
	}
	for i := range b.Code {
		if in := &b.Code[i]; in.Op == host.BEQZ && (in.Imm < 0 || i+1+int(in.Imm) >= len(b.Code)) {
			panic(fmt.Sprintf("codecache: branch at %d jumps %+d: intra-block branches go forward and stay within the block's %d insns", i, in.Imm, len(b.Code)))
		}
	}
	if c.used+len(b.Code) > c.Capacity {
		c.Flush()
		flushed = true
	}
	if c.byEntry == nil {
		x, ok := indexFree.Get()
		if !ok {
			x.byEntry = make(map[uint32]*Block)
		}
		c.blocks, c.byEntry = x.blocks, x.byEntry
	}
	if old, ok := c.byEntry[b.Entry]; ok {
		c.Invalidate(old)
	}
	b.ID = c.base + len(c.blocks)
	c.blocks = append(c.blocks, b)
	c.nblocks++
	c.byEntry[b.Entry] = b
	c.used += len(b.Code)
	c.Inserts++
	return flushed
}

// Invalidate removes a block and unchains every exit pointing at it.
func (c *Cache) Invalidate(b *Block) {
	if got, ok := c.Get(b.ID); !ok || got != b {
		return
	}
	for ref := b.incoming; ref != nil; ref = ref.next {
		src, ok := c.Get(ref.blockID)
		if !ok {
			continue
		}
		if e := src.Exit(ref.instIdx); e.Next == b {
			src.Code[ref.instIdx].Op = host.EXIT
			e.Next = nil
			c.ChainsCut++
		}
	}
	c.blocks[b.ID-c.base] = nil
	c.nblocks--
	if c.byEntry[b.Entry] == b {
		delete(c.byEntry, b.Entry)
	}
	c.used -= len(b.Code)
	c.Invalidates++
}

// Flush empties the cache. Block IDs are not reused: base advances past
// every ID ever issued, so the next insert continues the sequence
// (block IDs seed the synthetic host addresses the timing simulator
// sees, and reused IDs would alias old code addresses). Exit.Next links
// are left alone: every block goes at once, so none stays reachable.
//
// The slabs go to the collector, not to the free lists: a dropped block
// may still be held (the block whose insertion flushed has its code and
// record in them), and it must never see another block's.
func (c *Cache) Flush() {
	c.drop()
	s := &c.slabs
	s.code.Forget()
	s.recs.Forget()
	s.exits.Forget()
	s.pcs.Forget()
	s.refs.Forget()
	c.Flushes++
}

// drop removes every block, advancing base past their IDs.
func (c *Cache) drop() {
	c.base += len(c.blocks)
	clear(c.blocks) // release for GC; the slices themselves are reused
	c.blocks = c.blocks[:0]
	c.nblocks = 0
	clear(c.byEntry)
	c.used = 0
}

// Chain rewrites the EXIT at instIdx in src to jump directly to dst,
// recording the back-reference for later unchaining.
func (c *Cache) Chain(src *Block, instIdx int, dst *Block) error {
	in, e := &src.Code[instIdx], src.Exit(instIdx)
	if in.Op != host.EXIT || e == nil {
		return fmt.Errorf("codecache: instruction %d of block %d is %v, not a tabled exit", instIdx, src.ID, in.Op)
	}
	if in.Target != dst.Entry {
		return fmt.Errorf("codecache: exit targets %#x, block entry is %#x", in.Target, dst.Entry)
	}
	in.Op = host.CHAINED
	e.Next = dst
	r := c.slabs.refs.New()
	*r = exitRef{blockID: src.ID, instIdx: instIdx, next: dst.incoming}
	dst.incoming = r
	c.ChainsMade++
	return nil
}

// Blocks returns all resident blocks in insertion (ID) order.
func (c *Cache) Blocks() []*Block {
	out := make([]*Block, 0, c.nblocks)
	for _, b := range c.blocks {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}
