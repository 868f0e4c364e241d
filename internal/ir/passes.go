package ir

import (
	"fmt"
	"math"
)

// Verify checks SSA invariants: every value is defined exactly once,
// every use is dominated by its definition (defined earlier in the
// linear region), and operand classes (int/float) are consistent.
func (r *Region) Verify() error {
	defAt := make([]int, r.NumValues+1)
	for i := range defAt {
		defAt[i] = -1
	}
	isFP := make([]bool, r.NumValues+1)
	for i := range r.Code {
		in := &r.Code[i]
		var err error
		in.Uses(func(v ValueID) {
			if err != nil {
				return
			}
			if v <= 0 || int(v) > r.NumValues {
				err = fmt.Errorf("ir: inst %d uses out-of-range value v%d", i, v)
			} else if defAt[v] < 0 {
				err = fmt.Errorf("ir: inst %d uses v%d before definition", i, v)
			}
		})
		if err != nil {
			return err
		}
		if in.Dst != 0 {
			if in.Dst <= 0 || int(in.Dst) > r.NumValues {
				return fmt.Errorf("ir: inst %d defines out-of-range value v%d", i, in.Dst)
			}
			if defAt[in.Dst] >= 0 {
				return fmt.Errorf("ir: value v%d redefined at inst %d (first at %d)", in.Dst, i, defAt[in.Dst])
			}
			defAt[in.Dst] = i
			isFP[in.Dst] = in.FPResult()
		}
	}
	// Class consistency on float-consuming ops.
	for i := range r.Code {
		in := &r.Code[i]
		wantF := func(v ValueID) error {
			if v != 0 && !isFP[v] {
				return fmt.Errorf("ir: inst %d (%s) consumes int value v%d as float", i, in.Op, v)
			}
			return nil
		}
		switch in.Op {
		case Fadd, Fsub, Fmul, Fdiv, Fslt, Fseq, Funord:
			if err := wantF(in.A); err != nil {
				return err
			}
			if err := wantF(in.B); err != nil {
				return err
			}
		case Fsqrt, Fabs, Fneg, Fcvti, FMov, StF:
			v := in.A
			if in.Op == StF {
				v = in.B
			}
			if err := wantF(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// forward rewrites the instruction's operands through the resolution
// table a pass fills as it replaces values (0 = not replaced).
func (in *Inst) forward(resolve []ValueID) {
	res := func(v ValueID) ValueID {
		for v != 0 && resolve[v] != 0 {
			v = resolve[v]
		}
		return v
	}
	in.A, in.B = res(in.A), res(in.B)
	for j := range in.State {
		in.State[j].Val = res(in.State[j].Val)
	}
}

// compact drops the Nops the passes leave behind, moving each run of
// survivors with one copy: an Inst is 96 bytes.
func (r *Region) compact() {
	code, w := r.Code, 0
	for i := 0; i < len(code); {
		if code[i].Op == Nop {
			i++
			continue
		}
		j := i + 1
		for j < len(code) && code[j].Op != Nop {
			j++
		}
		if w != i {
			copy(code[w:], code[i:j])
		}
		w, i = w+j-i, j
	}
	r.Code = code[:w]
}

// resetConsts empties the constant table (indexed by value number) and
// noteConst enters the constant an instruction defines, if it does.
func (s *Scratch) resetConsts(numValues int) {
	s.constOp = grow(s.constOp, numValues+1)
	s.constBits = grow(s.constBits, numValues+1)
}

func (s *Scratch) noteConst(in *Inst) {
	switch in.Op {
	case ConstI:
		s.constOp[in.Dst], s.constBits[in.Dst] = ConstI, uint64(in.ImmU)
	case ConstF:
		s.constOp[in.Dst], s.constBits[in.Dst] = ConstF, math.Float64bits(in.ImmF)
	}
}

// constTable tabulates every constant the region defines.
func (r *Region) constTable() *Scratch {
	s := r.scratch()
	s.resetConsts(r.NumValues)
	for i := range r.Code {
		s.noteConst(&r.Code[i])
	}
	return s
}

// ForwardPass performs constant folding, constant propagation and copy
// propagation in one forward scan, rewriting uses through a resolution
// table. It returns the number of instructions reduced to simpler forms.
func (r *Region) ForwardPass() int {
	s := r.scratch()
	s.resolve = grow(s.resolve, r.NumValues+1)
	s.resetConsts(r.NumValues)
	resolve, changed := s.resolve, 0
	constI := func(v ValueID) (uint32, bool) { return uint32(s.constBits[v]), s.constOp[v] == ConstI }
	constF := func(v ValueID) (float64, bool) {
		return math.Float64frombits(s.constBits[v]), s.constOp[v] == ConstF
	}

	for i := range r.Code {
		in := &r.Code[i]
		in.forward(resolve)
		switch in.Op {
		case ConstI, ConstF:
		case Mov, FMov:
			// Copy propagation: all later uses see the source.
			resolve[in.Dst] = in.A
			in.Op = Nop
			in.Dst, in.A = 0, 0
			changed++
		default:
			if in.Dst == 0 || s.constOp[in.A] == Nop && s.constOp[in.B] == Nop {
				continue // every fold below needs a constant operand
			}
			ca, aok := constI(in.A)
			cb, bok := constI(in.B)
			fa, faok := constF(in.A)
			fb, fbok := constF(in.B)
			if v, ok := foldInt(in.Op, ca, cb, aok, bok); ok {
				in.Op, in.ImmU = ConstI, v
				in.A, in.B = 0, 0
				changed++
			} else if v, isInt, iv, ok := foldFloat(in.Op, fa, fb, faok, fbok); ok {
				if isInt {
					in.Op, in.ImmU = ConstI, iv
				} else {
					in.Op, in.ImmF = ConstF, v
				}
				in.A, in.B = 0, 0
				changed++
			} else if nv, ok := foldIdentity(in, ca, cb, aok, bok); ok {
				// Algebraic identity with one constant operand.
				resolve[in.Dst] = nv
				in.Op = Nop
				in.Dst, in.A, in.B = 0, 0, 0
				changed++
			}
		}
		s.noteConst(in)
	}
	return changed
}

// foldInt evaluates integer ops with constant operands, sharing the
// deterministic division semantics of the guest and host ISAs.
func foldInt(op Op, a, b uint32, aok, bok bool) (uint32, bool) {
	if !aok || (!bok && op != Nop) {
		return 0, false
	}
	switch op {
	case Add:
		return a + b, true
	case Sub:
		return a - b, true
	case Mul:
		return uint32(int32(a) * int32(b)), true
	case Mulh:
		return uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32), true
	case Div:
		switch {
		case int32(b) == 0:
			return 0xFFFFFFFF, true
		case int32(a) == math.MinInt32 && int32(b) == -1:
			return 0x80000000, true
		default:
			return uint32(int32(a) / int32(b)), true
		}
	case Rem:
		switch {
		case int32(b) == 0:
			return a, true
		case int32(a) == math.MinInt32 && int32(b) == -1:
			return 0, true
		default:
			return uint32(int32(a) % int32(b)), true
		}
	case And:
		return a & b, true
	case Or:
		return a | b, true
	case Xor:
		return a ^ b, true
	case Shl:
		return a << (b & 31), true
	case Shr:
		return a >> (b & 31), true
	case Sar:
		return uint32(int32(a) >> (b & 31)), true
	case Slt:
		return b2u(int32(a) < int32(b)), true
	case Sltu:
		return b2u(a < b), true
	case Seq:
		return b2u(a == b), true
	case Sne:
		return b2u(a != b), true
	}
	return 0, false
}

// foldFloat evaluates FP ops with constant operands. Comparison results
// are integer constants.
func foldFloat(op Op, a, b float64, aok, bok bool) (fv float64, isInt bool, iv uint32, ok bool) {
	un := aok
	bin := aok && bok
	switch op {
	case Fadd:
		if bin {
			return a + b, false, 0, true
		}
	case Fsub:
		if bin {
			return a - b, false, 0, true
		}
	case Fmul:
		if bin {
			return a * b, false, 0, true
		}
	case Fdiv:
		if bin {
			return a / b, false, 0, true
		}
	case Fsqrt:
		if un {
			return math.Sqrt(a), false, 0, true
		}
	case Fabs:
		if un {
			return math.Abs(a), false, 0, true
		}
	case Fneg:
		if un {
			return -a, false, 0, true
		}
	case Fcvti:
		if un {
			return 0, true, uint32(truncF64(a)), true
		}
	case Fslt:
		if bin {
			return 0, true, b2u(a < b), true
		}
	case Fseq:
		if bin {
			return 0, true, b2u(a == b), true
		}
	case Funord:
		if bin {
			return 0, true, b2u(math.IsNaN(a) || math.IsNaN(b)), true
		}
	}
	return 0, false, 0, false
}

// foldIdentity simplifies x+0, x|0, x^0, x&-1, x*1, x<<0 and friends to
// a copy of the surviving operand.
func foldIdentity(in *Inst, ca, cb uint32, aok, bok bool) (ValueID, bool) {
	switch in.Op {
	case Add, Or, Xor:
		if bok && cb == 0 {
			return in.A, true
		}
		if aok && ca == 0 {
			return in.B, true
		}
	case Sub, Shl, Shr, Sar:
		if bok && cb == 0 {
			return in.A, true
		}
	case And:
		if bok && cb == 0xFFFFFFFF {
			return in.A, true
		}
		if aok && ca == 0xFFFFFFFF {
			return in.B, true
		}
	case Mul:
		if bok && cb == 1 {
			return in.A, true
		}
		if aok && ca == 1 {
			return in.B, true
		}
	}
	return 0, false
}

// cseKey identifies a pure computation. The float immediate is keyed by
// its bits: as a float64 the map would compare it with ==, under which
// +0.0 and -0.0 are one constant and no NaN equals itself.
type cseKey struct {
	op   Op
	a, b ValueID
	immu uint32
	immf uint64
}

// valueTable maps computations to the value that first computed them:
// open addressing over a power-of-two slot array that holds at most
// half its slots. A slot belongs to the current region only if it
// carries the table's generation, so starting a region costs one
// increment, not a clear.
type valueTable struct {
	slots []valueSlot
	gen   uint32
	n     int // slots of this generation
}

type valueSlot struct {
	key cseKey
	val ValueID
	gen uint32
}

// reset empties the table.
func (t *valueTable) reset() {
	t.gen++
	t.n = 0
	if t.gen == 0 { // wrapped: stale slots could claim the new generation
		clear(t.slots)
		t.gen = 1
	}
}

// slot returns k's slot: its entry, or the empty slot an insert of k
// fills. A slot is good until the next insert.
func (t *valueTable) slot(k cseKey) *valueSlot {
	if 2*(t.n+1) > len(t.slots) {
		t.rehash()
	}
	h := (uint64(uint32(k.a))<<32 | uint64(uint32(k.b))) * 0x9E3779B97F4A7C15
	h ^= (uint64(k.immu)<<8 | uint64(k.op)) * 0xC2B2AE3D27D4EB4F
	h ^= k.immf * 0x165667B19E3779F9
	mask := uint64(len(t.slots) - 1)
	for i := h >> 32 & mask; ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.gen != t.gen || sl.key == k {
			return sl
		}
	}
}

// insert fills the empty slot sl, which slot(k) returned, with k.
func (t *valueTable) insert(sl *valueSlot, k cseKey, v ValueID) {
	*sl = valueSlot{key: k, val: v, gen: t.gen}
	t.n++
}

// rehash doubles the slot array, keeping this generation's entries.
func (t *valueTable) rehash() {
	old := t.slots
	t.slots = make([]valueSlot, max(64, 2*len(old)))
	gen := t.gen
	t.reset()
	for i := range old {
		if sl := &old[i]; sl.gen == gen {
			t.insert(t.slot(sl.key), sl.key, sl.val)
		}
	}
}

// Const returns the region's value for the constant in, a ConstI or a
// ConstF, emitting in the first time the region asks for it: the
// front end's constant pool, over the table CSE uses afterwards.
func (r *Region) Const(in Inst) ValueID {
	t := &r.scratch().vals
	k := cseKey{op: in.Op, immu: in.ImmU, immf: math.Float64bits(in.ImmF)}
	sl := t.slot(k)
	if sl.gen == t.gen {
		return sl.val
	}
	in.Dst = r.NewValue()
	t.insert(sl, k, in.Dst)
	r.Emit(in)
	return in.Dst
}

// CSE performs local value numbering over pure instructions: identical
// (op, operands, immediate) pairs collapse to the first occurrence.
// Memory and control instructions are untouched (redundant loads are the
// DDG phase's job).
func (r *Region) CSE() int {
	s := r.scratch()
	s.vals.reset()
	s.resolve = grow(s.resolve, r.NumValues+1)
	resolve, removed := s.resolve, 0
	for i := range r.Code {
		in := &r.Code[i]
		in.forward(resolve)
		if in.Dst == 0 || in.IsLoad() || in.HasSideEffect() || in.Op == LiveIn {
			continue
		}
		k := cseKey{op: in.Op, a: in.A, b: in.B, immu: in.ImmU, immf: math.Float64bits(in.ImmF)}
		if commutative(in.Op) && in.B < in.A {
			k.a, k.b = in.B, in.A
		}
		if sl := s.vals.slot(k); sl.gen == s.vals.gen {
			resolve[in.Dst] = sl.val
			in.Op = Nop
			in.Dst, in.A, in.B = 0, 0, 0
			removed++
		} else {
			s.vals.insert(sl, k, in.Dst)
		}
	}
	return removed
}

func commutative(op Op) bool {
	switch op {
	case Add, Mul, Mulh, And, Or, Xor, Seq, Sne, Fadd, Fmul, Fseq, Funord:
		return true
	}
	return false
}

// DCE removes instructions whose results are never used, scanning
// backwards from side-effecting roots (stores, exits, asserts).
func (r *Region) DCE() int {
	s := r.scratch()
	s.live = grow(s.live, r.NumValues+1)
	live := s.live
	for i := len(r.Code) - 1; i >= 0; i-- {
		in := &r.Code[i]
		if in.Op == Nop {
			continue
		}
		if in.HasSideEffect() || (in.Dst != 0 && live[in.Dst]) {
			in.Uses(func(v ValueID) { live[v] = true })
		}
	}
	removed := 0
	for i := range r.Code {
		in := &r.Code[i]
		if in.Op == Nop {
			removed++
			continue
		}
		if in.Dst != 0 && !live[in.Dst] && !in.HasSideEffect() {
			in.Op = Nop
			in.Dst, in.A, in.B = 0, 0, 0
			removed++
		}
	}
	r.compact()
	return removed
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func truncF64(f float64) int32 {
	if math.IsNaN(f) || f >= float64(math.MaxInt32)+1 || f < float64(math.MinInt32) {
		return math.MinInt32
	}
	return int32(f)
}
