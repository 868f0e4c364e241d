package ir

// Memory disambiguation and the data dependence graph (DDG).
//
// The DDG phase of the paper's optimizer: memory disambiguation
// classifies every pair of accesses as never/must/may alias; redundant
// load elimination and store forwarding remove memory operations whose
// value is already known; dead stores overwritten before any observation
// are dropped; and the resulting dependence graph feeds the list
// scheduler, with may-alias store→load edges marked breakable so the
// scheduler can hoist loads speculatively (converting them to
// speculative memory operations checked by the alias table at runtime).

// AliasClass is the result of memory disambiguation on an access pair.
type AliasClass uint8

// Alias classes.
const (
	AliasNever AliasClass = iota
	AliasMust             // identical address and width
	AliasMay
)

type memRef struct {
	base  ValueID // 0 when the address is an absolute constant
	abs   uint32  // absolute address when base == 0
	off   int32
	width uint8
}

// memRefOf describes the access of a load or store, resolving a constant
// base through the scratch's constant table.
func (s *Scratch) memRefOf(in *Inst) memRef {
	ref := memRef{base: in.A, off: in.Off, width: in.MemWidth()}
	if s.constOp[in.A] == ConstI {
		ref.base = 0
		ref.abs = uint32(s.constBits[in.A]) + uint32(in.Off)
		ref.off = 0
	}
	return ref
}

// classify disambiguates two memory references.
func classify(a, b memRef) AliasClass {
	if a.base == b.base {
		lo1 := int64(a.off)
		hi1 := lo1 + int64(a.width)
		lo2 := int64(b.off)
		hi2 := lo2 + int64(b.width)
		if a.base == 0 {
			lo1, hi1 = int64(a.abs), int64(a.abs)+int64(a.width)
			lo2, hi2 = int64(b.abs), int64(b.abs)+int64(b.width)
		}
		switch {
		case lo1 == lo2 && a.width == b.width:
			return AliasMust
		case hi1 <= lo2 || hi2 <= lo1:
			return AliasNever
		default:
			return AliasMay
		}
	}
	// Distinct symbolic bases may be anything.
	return AliasMay
}

// memOp is a load or store a pass has gone by, with its reference.
type memOp struct {
	ref memRef
	idx int
}

// MemOptStats reports what the DDG memory phase removed.
type MemOptStats struct {
	LoadsEliminated  int // redundant load elimination + store forwarding
	StoresEliminated int // dead stores overwritten before observation
}

// availEntry is a memory location whose content is a known value.
type availEntry struct {
	ref memRef
	val ValueID
}

// MemOpt performs redundant load elimination, store-to-load forwarding
// and dead store elimination in one forward scan. Both of its lists stay
// short: a store keeps only the known values it cannot alias, and the
// pending stores (those a later store may still kill unobserved) lose
// each one a load may read, and all of them at an exit.
func (r *Region) MemOpt() MemOptStats {
	s := r.constTable()
	s.resolve = grow(s.resolve, r.NumValues+1)
	resolve, avail, pending := s.resolve, s.avail[:0], s.pending[:0]
	var st MemOptStats

	for i := range r.Code {
		in := &r.Code[i]
		in.forward(resolve)
		switch {
		case in.IsLoad():
			ref := s.memRefOf(in)
			hit := false
			for _, e := range avail {
				if classify(e.ref, ref) == AliasMust {
					resolve[in.Dst] = e.val
					in.Op = Nop
					in.Dst, in.A = 0, 0
					st.LoadsEliminated++
					hit = true
					break
				}
			}
			if hit {
				break
			}
			kept := pending[:0]
			for _, p := range pending {
				if classify(p.ref, ref) == AliasNever {
					kept = append(kept, p)
				}
			}
			pending = kept
			avail = append(avail, availEntry{ref: ref, val: in.Dst})
		case in.IsStore():
			ref := s.memRefOf(in)
			// Dead store elimination: a pending store to the exact
			// location is overwritten.
			for j := range pending {
				if classify(pending[j].ref, ref) == AliasMust {
					dead := &r.Code[pending[j].idx]
					dead.Op = Nop
					dead.A, dead.B = 0, 0
					st.StoresEliminated++
					pending[j] = memOp{ref: ref, idx: i}
					goto recorded
				}
			}
			pending = append(pending, memOp{ref: ref, idx: i})
		recorded:
			// Kill may-aliasing availability; record the stored value.
			kept := avail[:0]
			for _, e := range avail {
				if classify(e.ref, ref) == AliasNever {
					kept = append(kept, e)
				}
			}
			avail = append(kept, availEntry{ref: ref, val: in.B})
		case in.IsExit():
			// A (possible) commit makes every buffered store
			// architecturally observable.
			pending = pending[:0]
		}
	}
	s.avail, s.pending = avail, pending
	r.compact()
	return st
}

// Edge is one dependence in the DDG.
type Edge struct {
	From, To  int
	Breakable bool // may-alias store→load order; scheduler may hoist speculatively
}

// DDG is the data dependence graph over the region's instructions.
type DDG struct {
	N     int
	Succs [][]Edge // in the order the edges were found

	// edges collects the graph during construction; finish() buckets it
	// into the Succs adjacency view, which shares one arena instead of
	// paying one allocation per node's first edge.
	edges []Edge
	arena []Edge
	end   []int
}

func (g *DDG) addEdge(from, to int, breakable bool) {
	if from == to {
		return
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Breakable: breakable})
}

// finish builds the adjacency view from the collected edge list,
// preserving insertion order within each node.
func (g *DDG) finish() {
	n := g.N
	g.end = grow(g.end, n)
	for _, e := range g.edges {
		g.end[e.From]++
	}
	// Turn each node's count into the offset its edges start at...
	s := 0
	for i := 0; i < n; i++ {
		s, g.end[i] = s+g.end[i], s
	}
	// ...which placing them, in insertion order, advances to their end.
	g.arena = grow(g.arena, len(g.edges))
	for _, e := range g.edges {
		g.arena[g.end[e.From]] = e
		g.end[e.From]++
	}
	g.Succs = grow(g.Succs, n)
	s = 0
	for i := 0; i < n; i++ {
		g.Succs[i], s = g.arena[s:g.end[i]:g.end[i]], g.end[i]
	}
}

// BuildDDG constructs the dependence graph: true data dependences,
// memory ordering edges from disambiguation, and control edges that pin
// asserts and exits.
func (r *Region) BuildDDG() *DDG {
	s := r.constTable()
	g := &s.ddg
	g.N, g.edges = len(r.Code), g.edges[:0]
	s.defIdx = grow(s.defIdx, r.NumValues+1)
	defIdx := s.defIdx
	for i := range defIdx {
		defIdx[i] = -1
	}
	mems := s.mems[:0]     // loads and stores in order
	stores := s.stores[:0] // the stores among them
	ctlIdx := s.ctlIdx[:0] // asserts and exits in order
	lastExit := -1

	for i := range r.Code {
		in := &r.Code[i]
		// Data edges.
		in.Uses(func(v ValueID) {
			if d := defIdx[v]; d >= 0 {
				g.addEdge(d, i, false)
			}
		})
		if in.Dst != 0 {
			defIdx[in.Dst] = i
		}

		switch {
		case in.IsLoad():
			ref := s.memRefOf(in)
			for _, m := range stores {
				switch classify(m.ref, ref) {
				case AliasMust:
					g.addEdge(m.idx, i, false) // should have been forwarded; keep order
				case AliasMay:
					g.addEdge(m.idx, i, true) // breakable: speculative hoist allowed
				}
			}
			if !r.UseAsserts && lastExit >= 0 {
				g.addEdge(lastExit, i, false)
			}
			mems = append(mems, memOp{ref: ref, idx: i})
		case in.IsStore():
			ref := s.memRefOf(in)
			for _, m := range mems {
				// Output dependence on an earlier store, or anti
				// dependence: the store may not move above a preceding
				// load it may alias with.
				if classify(m.ref, ref) != AliasNever {
					g.addEdge(m.idx, i, false)
				}
			}
			if !r.UseAsserts && lastExit >= 0 {
				g.addEdge(lastExit, i, false)
			}
			mems = append(mems, memOp{ref: ref, idx: i})
			stores = append(stores, memOp{ref: ref, idx: i})
		case in.Op == Assert:
			// Asserts keep their relative order and precede every exit.
			if len(ctlIdx) > 0 {
				g.addEdge(ctlIdx[len(ctlIdx)-1], i, false)
			}
			ctlIdx = append(ctlIdx, i)
		case in.IsExit():
			// Exits are barriers: every earlier memory op and control
			// op must complete first; later memory ops stay after.
			for _, m := range mems {
				g.addEdge(m.idx, i, false)
			}
			if len(ctlIdx) > 0 {
				g.addEdge(ctlIdx[len(ctlIdx)-1], i, false)
			}
			ctlIdx = append(ctlIdx, i)
			lastExit = i
		}
	}
	s.mems, s.stores, s.ctlIdx = mems, stores, ctlIdx
	g.finish()
	return g
}
