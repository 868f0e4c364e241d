// Package codecache implements the translation code cache of the
// co-designed processor: translated blocks indexed by guest entry PC,
// block chaining (including unchaining on invalidation), and
// capacity-triggered flushes.
package codecache

import (
	"fmt"

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
	Unrolled   int  // loop unroll factor applied (0 or 1 = none)

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

	// incoming records chained exits from other blocks targeting this
	// block, so invalidation can unchain them.
	incoming []exitRef
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

type exitRef struct {
	blockID int
	instIdx int
}

// Cache is the code cache. Capacity is expressed in host instructions;
// exceeding it flushes the whole cache (the strategy production
// translators like Dynamo use, and the simplest correct one).
type Cache struct {
	Capacity int

	// blocks[i] holds the block with ID base+i (IDs are dense and
	// monotonic; a flush advances base so IDs are never reused).
	blocks  []*Block
	base    int
	nblocks int
	byEntry map[uint32]*Block
	used    int

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
		byEntry:  make(map[uint32]*Block),
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
	for _, ref := range b.incoming {
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
func (c *Cache) Flush() {
	c.base += len(c.blocks)
	for i := range c.blocks {
		c.blocks[i] = nil // release for GC; the slice itself is reused
	}
	c.blocks = c.blocks[:0]
	c.nblocks = 0
	c.byEntry = make(map[uint32]*Block)
	c.used = 0
	c.Flushes++
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
	dst.incoming = append(dst.incoming, exitRef{blockID: src.ID, instIdx: instIdx})
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
