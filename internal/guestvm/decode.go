package guestvm

import (
	"fmt"

	"darco/internal/guest"
)

// DecodeCache is one functional emulator's guest front end: its one
// block decoder and the blocks it decoded. The authoritative VM and the
// TOL own one each, and every consumer reads guest code as the blocks
// Decode returns: VM.Run, the TOL's interpreter, its basic-block
// translation and its superblock formation.
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
// Decoded blocks live in a map keyed by entry pc; the block is the unit
// of caching, so an instruction is decoded again only for another block
// that covers it. The zero value is ready to use.
//
// Guest code is immutable: Decode makes code of the pages of every
// block it decodes (both pages of a block that straddles a boundary),
// and a store to a code page fails with *CodeWriteError, whichever
// emulator or path makes it. So a cached block never goes stale.
type DecodeCache struct {
	blocks  map[uint32]*Block
	scratch []guest.Inst // the block being decoded
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
	// with more targets goes back to the map.
	succ [2]*Block
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
func (d *DecodeCache) Decode(mem *Memory, prev *Block, pc uint32) (*Block, bool, error) {
	if b := d.blocks[pc]; b != nil {
		if prev != nil {
			prev.succ[1], prev.succ[0] = prev.succ[0], b
		}
		return b, true, nil
	}
	d.scratch = d.scratch[:0]
	at := pc
	var err error
	for len(d.scratch) < MaxBlockInsns {
		var in guest.Inst
		if in, err = Fetch(mem, at); err != nil {
			break
		}
		d.scratch = append(d.scratch, in)
		at += uint32(in.Size)
		if in.Op.EndsBasicBlock() {
			break
		}
	}
	b := &Block{Insts: append([]guest.Inst(nil), d.scratch...), PC: pc, End: at}
	mem.markCode(pc, at)
	if err == nil {
		if d.blocks == nil {
			d.blocks = make(map[uint32]*Block)
		}
		d.blocks[pc] = b
	}
	return b, false, err
}
