package codecache

import "darco/internal/host"

// Tally counts how often each instruction of a block retired. A pass
// through the block costs an update per control transfer instead of one
// per instruction: every intra-block branch goes forward (Cache.Insert
// checks it), so a pass retires each instruction at most once, and the
// counts are kept as a difference array over instruction indices, +1
// where a straight-line segment of the pass starts and −1 just past
// where it ends. Fold turns them into per-instruction counts.
type Tally struct {
	// Diff has len(Code)+1 entries; its prefix sum up to i is how often
	// instruction i retired since the last Fold. Diff[0] counts the
	// passes, since no forward branch lands on index 0.
	Diff []uint64

	seg   int    // where the current pass's last segment starts
	segN  uint64 // instructions the current pass retired before seg
	taken uint64 // control transfers taken since the last Fold
}

// TallyArena hands out tallies carved from shared chunks, so that
// tallying a block allocates nothing most of the time: a session
// translates blocks by the hundred, and an allocation or two each
// would show in its allocation count.
type TallyArena struct {
	tallies []Tally
	diffs   []uint64
}

const (
	tallyChunk = 64   // tallies per chunk
	diffChunk  = 4096 // difference-array entries per chunk
)

// New returns a fresh tally for code.
func (a *TallyArena) New(code []host.Inst) *Tally {
	if len(a.tallies) == 0 {
		a.tallies = make([]Tally, tallyChunk)
	}
	t := &a.tallies[0]
	a.tallies = a.tallies[1:]
	n := len(code) + 1
	if n > diffChunk {
		t.Diff = make([]uint64, n) // longer than a chunk: its own array
		return t
	}
	if n > len(a.diffs) {
		a.diffs = make([]uint64, diffChunk)
	}
	t.Diff, a.diffs = a.diffs[:n:n], a.diffs[n:]
	return t
}

// Enter starts a pass at the block's first instruction. It reports
// whether the tally held no counts before, so that its owner knows to
// fold it later.
func (t *Tally) Enter() (first bool) {
	first = t.Diff[0] == 0
	t.Diff[0]++
	t.seg, t.segN = 0, 0
	return first
}

// Jump records the taken branch at from to the instruction at to, after
// the pass has retired n instructions, the branch included.
func (t *Tally) Jump(from, to int, n uint64) {
	t.Diff[from+1]--
	t.Diff[to]++
	t.seg, t.segN = to, n
	t.taken++
}

// Leave ends the pass after n retired instructions; taken says whether
// the last one left the fall-through path (an exit or a failed assert).
func (t *Tally) Leave(n uint64, taken bool) {
	t.Diff[t.seg+int(n-t.segN)]--
	if taken {
		t.taken++
	}
}

// Fold adds the counts since the last Fold to ops by opcode, clears
// them, and returns the taken control transfers among them. code must
// be the Code the passes ran.
func (t *Tally) Fold(code []host.Inst, ops *[host.NumOps]uint64) (taken uint64) {
	var c uint64
	for i := range code {
		c += t.Diff[i]
		ops[code[i].Op] += c
	}
	clear(t.Diff)
	taken, t.taken = t.taken, 0
	return taken
}
