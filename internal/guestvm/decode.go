package guestvm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"darco/internal/freelist"
	"darco/internal/guest"
)

// DecodeCache is one functional emulator's guest front end: its one
// block decoder and the blocks it decoded. Every consumer reads guest
// code as the blocks Decode returns: VM.Run, the TOL's interpreter, its
// basic-block translation and its superblock formation.
//
// The block rule: a block begins at its entry pc and ends with the
// first instruction that ends a basic block (guest.Op.EndsBasicBlock,
// SYSCALL included), after MaxBlockInsns instructions when no
// terminator comes first (a cut block: the rest is the block entered
// at the next pc, and no basic block is complete until its terminator
// retires), or just before an instruction that cannot be fetched (a
// partial block, not cached). The TOL translates a block that ends with
// its terminator; a cut block stays in the interpreter, the way a block
// made of one untranslatable instruction does.
//
// Decoded blocks live in a CodeTable keyed by entry pc; the block is the
// unit of caching, so an instruction is decoded again only for another
// block that covers it. A session's authoritative VM and TOL share one
// table (see Share), so the guest code they both run is held once. Each
// front end still decodes a block from its own memory the first time it
// meets it, and takes the table's block only when the instructions are
// the same; a block decoded differently stays its own. The zero value
// is ready to use, with a table of its own.
//
// Guest code is immutable: Decode makes code of the pages of every
// block it decodes (both pages of a block that straddles a boundary),
// and a store to a code page fails with *CodeWriteError, whichever
// emulator or path makes it. So a cached block never goes stale.
type DecodeCache struct {
	table *CodeTable
	front *front // d's share of table
}

// front is one front end's share of a CodeTable: its bit in Block.seen,
// its own blocks, the slabs it cuts its blocks from and the scratch it
// decodes into. Only the front end's goroutine touches it until the
// table is released.
type front struct {
	seen uint32

	// own holds the blocks this front end decoded to other instructions
	// than the table's block at the same pc: its memory and the other
	// front end's disagree there, and each runs what it decoded.
	own map[uint32]*Block

	// blocks and insts are where the front end's blocks and their
	// instructions are cut from, the table's blocks and its own alike.
	blocks freelist.Slab[Block]
	insts  freelist.Slab[guest.Inst]

	// scratch holds the block being decoded. The first decode takes the
	// one a released table handed back, if any, grown to the longest
	// block its sessions decoded; it grows from there as needed.
	scratch []guest.Inst
}

// CodeTable is the decoded blocks the front ends of one guest program
// share, keyed by entry pc. It is the one guestvm state both goroutines
// of a running session touch. A lookup takes no lock and writes nothing
// shared, so a front end finding a block it decoded before never waits
// for, or disturbs the cache of, the other goroutine: the slots array
// is published whole, a filled slot never changes, and a block's
// instructions are written before it enters a slot and never after. mu
// serializes only what a miss writes: filling a slot and growing the
// array. The zero value is ready to use.
//
// The blocks and slot arrays live as long as the table: Release hands
// them all to free lists the next session's table takes them from.
type CodeTable struct {
	slots atomic.Pointer[codeSlots]

	mu      sync.Mutex
	n       int          // blocks held; guarded by mu
	users   uint32       // the seen bits handed out (see join); guarded by mu
	fronts  []*front     // one per join; guarded by mu
	retired []*codeSlots // arrays grow replaced, which a lookup may still read; guarded by mu
}

// The chunks of released tables' slabs, their slot arrays, one list per
// length (indexed by log2), every slot empty, and their front ends'
// decode scratches.
var (
	blockFree   freelist.List[[]Block]
	instFree    freelist.List[[]guest.Inst]
	slotFree    [33]freelist.List[*codeSlots]
	scratchFree freelist.List[[]guest.Inst]
)

// codeSlots is an open-addressed table of blocks keyed by entry pc,
// probed linearly from a multiplicative hash of the pc. A power of two
// long and never more than three quarters full, so a probe ends at the
// block or at an empty slot.
type codeSlots struct {
	shift uint // 32 - log2(len(slot))
	slot  []atomic.Pointer[Block]
}

// find returns the block at pc, or nil and the empty slot it would go in.
func (s *codeSlots) find(pc uint32) (*Block, int) {
	mask := len(s.slot) - 1
	for i := int(pc * 0x9e3779b1 >> s.shift); ; i = (i + 1) & mask {
		if b := s.slot[i].Load(); b == nil || b.PC == pc {
			return b, i
		}
	}
}

// lookup returns the block at pc, or nil; it takes no lock. A lookup
// racing an insert may read the array from before it and return nil;
// the caller's own insert then finds the block under mu. A block a
// front end saw itself is in every array it reads after.
func (t *CodeTable) lookup(pc uint32) *Block {
	s := t.slots.Load()
	if s == nil {
		return nil
	}
	b, _ := s.find(pc)
	return b
}

// minSlots is a new table's length. The benchmark rosters' programs
// decode 50 to 330 blocks: a session's table ends at 128 or 512 slots.
const minSlots = 64

// insert puts b in the table unless it holds a block at b.PC already,
// and returns the block it holds there. b is made before the lock is
// taken, so nothing allocates under it but a growth.
func (t *CodeTable) insert(b *Block) *Block {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slots.Load()
	if s != nil {
		if old, _ := s.find(b.PC); old != nil {
			return old
		}
	}
	if s == nil || 4*(t.n+1) > 3*len(s.slot) {
		s = t.grow(s)
	}
	_, i := s.find(b.PC)
	s.slot[i].Store(b)
	t.n++
	return b
}

// grow publishes an array twice as long as old (minSlots for none)
// holding old's blocks, and retires old. Called with mu held.
func (t *CodeTable) grow(old *codeSlots) *codeSlots {
	n, held := minSlots, []atomic.Pointer[Block](nil)
	if old != nil {
		n, held = 2*len(old.slot), old.slot
		t.retired = append(t.retired, old)
	}
	lg := bits.Len(uint(n)) - 1
	s, ok := slotFree[lg].Get()
	if !ok {
		s = &codeSlots{shift: uint(32 - lg), slot: make([]atomic.Pointer[Block], n)}
	}
	for i := range held {
		if b := held[i].Load(); b != nil {
			_, j := s.find(b.PC)
			s.slot[j].Store(b)
		}
	}
	t.slots.Store(s)
	return s
}

// join hands out the next seen bit with a front end's share of the
// table. A session's table has two users; 32 is the most a mask can
// tell apart.
func (t *CodeTable) join() *front {
	t.mu.Lock()
	defer t.mu.Unlock()
	bit := (t.users + 1) &^ t.users
	if bit == 0 {
		panic("guestvm: more than 32 front ends share one CodeTable")
	}
	t.users |= bit
	f := &front{
		seen:   bit,
		blocks: freelist.NewSlab(&blockFree, 256),
		insts:  freelist.NewSlab(&instFree, 2048),
	}
	t.fronts = append(t.fronts, f)
	return f
}

// Release empties the table and hands every block its front ends
// decoded, their instructions, their decode scratches and the table's
// slot arrays to free lists, for the next session's table. Call it only when no front end will
// decode through the table again and nothing holds a block it returned:
// the goroutines of the session are done. The front ends keep their
// bits; a released table is empty and stays usable, and releasing it
// again hands back nothing.
func (t *CodeTable) Release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.fronts {
		f.own = nil
		f.blocks.Release()
		f.insts.Release()
		if cap(f.scratch) > 0 {
			scratchFree.Put(f.scratch[:0])
		}
		f.scratch = nil
	}
	if s := t.slots.Load(); s != nil {
		t.retired = append(t.retired, s)
		t.slots.Store(nil)
	}
	for _, s := range t.retired {
		for i := range s.slot {
			s.slot[i].Store(nil)
		}
		slotFree[bits.Len(uint(len(s.slot)))-1].Put(s)
	}
	clear(t.retired)
	t.retired = t.retired[:0]
	t.n = 0
}

// Table returns the table d decodes through, giving d one of its own on
// first use.
func (d *DecodeCache) Table() *CodeTable {
	if d.table == nil {
		d.Share(new(CodeTable))
	}
	return d.table
}

// Share makes d decode through t, which other front ends may share, and
// drops what d decoded before. Blocks in t that another front end
// decoded count as misses until d decodes them itself.
func (d *DecodeCache) Share(t *CodeTable) {
	d.table, d.front = t, t.join()
}

// MaxBlockInsns caps a decoded block: a longer basic block is cut into
// pieces of at most this many instructions.
const MaxBlockInsns = 4096

// Block is one decoded block (see DecodeCache for where it ends). It is
// never modified, and the guest bytes it was decoded from cannot change.
type Block struct {
	Insts   []guest.Inst
	PC, End uint32 // guest bytes [PC, End) the instructions were decoded from

	// succ are the two blocks last seen to follow this one, most recent
	// first: both ways of a conditional branch stay linked. A link is
	// taken only when its pc is where control went; an indirect branch
	// with more targets goes back to the map. Only VM.Run follows and
	// writes links (the TOL passes no prev), so they need no lock.
	succ [2]*Block

	// seen has the bit of every front end that decoded the block
	// itself (see CodeTable.join). A front end sets and tests only its
	// own bit, so a test reads what its own goroutine wrote.
	seen atomic.Uint32
}

// Next returns the block linked from b whose entry is pc, or nil (also
// for a nil b): a block that follows b is found without a map lookup.
func (b *Block) Next(pc uint32) *Block {
	if b == nil {
		return nil
	}
	if n := b.succ[0]; n != nil && n.PC == pc {
		return n
	}
	if n := b.succ[1]; n != nil && n.PC == pc {
		return n
	}
	return nil
}

// Term returns the block's terminator, or nil when it has none: the
// decoder cut it at MaxBlockInsns, or a fetch error ended it.
func (b *Block) Term() *guest.Inst {
	if n := len(b.Insts); n > 0 && b.Insts[n-1].Op.EndsBasicBlock() {
		return &b.Insts[n-1]
	}
	return nil
}

// UndecodableError reports guest bytes that decode to no instruction.
// Each emulator prefixes its text with its own name.
type UndecodableError uint32

func (e UndecodableError) Error() string {
	return fmt.Sprintf("undecodable instruction at %#x", uint32(e))
}

// Fetch decodes the instruction at pc from mem. It reads exactly the
// instruction's bytes: the opcode, then as many more as its form has,
// so it never touches a page the instruction does not occupy. A byte
// mem cannot supply returns mem's error; bytes that decode to nothing
// return an UndecodableError.
func Fetch(mem *Memory, pc uint32) (in guest.Inst, err error) {
	var raw [10]byte
	if raw[0], err = mem.Load8(pc); err != nil {
		return in, err
	}
	n := guest.FormLen(guest.Op(raw[0]).Desc().Form)
	for i := 1; i < n; i++ {
		if raw[i], err = mem.Load8(pc + uint32(i)); err != nil {
			return in, err
		}
	}
	if in, k := guest.Decode(raw[:n]); k != 0 {
		return in, nil
	}
	return in, UndecodableError(pc)
}

// Decode returns the block entered at pc and whether it was cached. A
// block not cached is decoded from mem through Fetch and cached. When
// an instruction cannot be fetched, Decode returns the instructions
// before it (possibly none) as a block it does not cache, with Fetch's
// error: the caller runs that prefix, and the error stands once
// execution reaches the instruction. Either way the pages of the bytes
// decoded become code. prev, when non-nil, is the block that ran just
// before: a cached block becomes its most recent link (see Next).
//
// A block counts as cached only when d decoded it before: one another
// front end put in the table is decoded from mem all the same, with the
// same faults and code marks, and then taken from the table when its
// instructions are the same.
func (d *DecodeCache) Decode(mem *Memory, prev *Block, pc uint32) (*Block, bool, error) {
	if b := d.Cached(pc); b != nil {
		if prev != nil {
			prev.succ[1], prev.succ[0] = prev.succ[0], b
		}
		return b, true, nil
	}
	t := d.Table()
	f := d.front
	if f.scratch == nil {
		f.scratch, _ = scratchFree.Get()
	}
	f.scratch = f.scratch[:0]
	at := pc
	var err error
	for len(f.scratch) < MaxBlockInsns {
		var in guest.Inst
		if in, err = Fetch(mem, at); err != nil {
			break
		}
		f.scratch = append(f.scratch, in)
		at += uint32(in.Size)
		if in.Op.EndsBasicBlock() {
			break
		}
	}
	mem.markCode(pc, at)
	if err != nil {
		return d.block(pc, at), false, err
	}
	b := t.lookup(pc)
	if b == nil { // the first front end to decode it, unless it races the other
		b = t.insert(d.block(pc, at))
	}
	if !slices.EqualFunc(b.Insts, f.scratch, sameInst) {
		// Decoded differently: it stays this front end's own.
		b = d.block(pc, at)
		if f.own == nil {
			f.own = make(map[uint32]*Block)
		}
		f.own[pc] = b
		return b, false, nil
	}
	b.seen.Or(f.seen)
	return b, false, nil
}

// Cached returns the block a Decode at pc would find cached, or nil. It
// decodes nothing, links nothing and takes no lock.
func (d *DecodeCache) Cached(pc uint32) *Block {
	f := d.front
	if f == nil {
		return nil
	}
	if b := f.own[pc]; b != nil {
		return b
	}
	if b := d.table.lookup(pc); b != nil && b.seen.Load()&f.seen != 0 {
		return b
	}
	return nil
}

// block copies the instructions just decoded, [pc, end), into a block
// cut from d's slabs. Call it with d's table set.
func (d *DecodeCache) block(pc, end uint32) *Block {
	f := d.front
	b := f.blocks.New()
	b.Insts = f.insts.Make(len(f.scratch))
	copy(b.Insts, f.scratch)
	b.PC, b.End = pc, end
	return b
}

// sameInst reports whether x and y are the same instruction, comparing
// F64 bit for bit: == would take -0 for +0 and no NaN for itself.
func sameInst(x, y guest.Inst) bool {
	fx, fy := math.Float64bits(x.F64), math.Float64bits(y.F64)
	x.F64, y.F64 = 0, 0
	return x == y && fx == fy
}
