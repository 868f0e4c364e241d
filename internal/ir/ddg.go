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

// storeEntry is a store that may still be overwritten unobserved.
type storeEntry struct {
	ref      memRef
	idx      int
	observed bool // an exit or may-alias load occurred after it
}

// MemOpt performs redundant load elimination, store-to-load forwarding
// and dead store elimination in one forward scan.
func (r *Region) MemOpt() MemOptStats {
	s := r.constTable()
	s.resolve = grow(s.resolve, r.NumValues+1)
	resolve, avail, stores := s.resolve, s.avail[:0], s.stores[:0]
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
			for j := range stores {
				if classify(stores[j].ref, ref) != AliasNever {
					stores[j].observed = true
				}
			}
			avail = append(avail, availEntry{ref: ref, val: in.Dst})
		case in.IsStore():
			ref := s.memRefOf(in)
			// Dead store elimination: a prior unobserved store to the
			// exact location is overwritten.
			for j := range stores {
				if !stores[j].observed && classify(stores[j].ref, ref) == AliasMust {
					dead := &r.Code[stores[j].idx]
					dead.Op = Nop
					dead.A, dead.B = 0, 0
					st.StoresEliminated++
					stores[j] = storeEntry{ref: ref, idx: i}
					goto recorded
				}
			}
			stores = append(stores, storeEntry{ref: ref, idx: i})
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
			for j := range stores {
				stores[j].observed = true
			}
		}
	}
	s.avail, s.stores = avail, stores
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
	Succs [][]Edge
	Preds [][]Edge

	// edges collects the graph during construction; finish() buckets it
	// into the Succs/Preds adjacency views, which share two arenas
	// instead of paying one allocation per node's first edge.
	edges          []Edge
	sArena, pArena []Edge
	sEnd, pEnd     []int
}

func (g *DDG) addEdge(from, to int, breakable bool) {
	if from == to {
		return
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Breakable: breakable})
}

// finish builds the adjacency views from the collected edge list,
// preserving insertion order within each node.
func (g *DDG) finish() {
	n := g.N
	g.sEnd, g.pEnd = grow(g.sEnd, n), grow(g.pEnd, n)
	for _, e := range g.edges {
		g.sEnd[e.From]++
		g.pEnd[e.To]++
	}
	// Turn each node's count into the offset its edges start at...
	s, p := 0, 0
	for i := 0; i < n; i++ {
		s, g.sEnd[i] = s+g.sEnd[i], s
		p, g.pEnd[i] = p+g.pEnd[i], p
	}
	// ...which placing them, in insertion order, advances to their end.
	g.sArena, g.pArena = grow(g.sArena, len(g.edges)), grow(g.pArena, len(g.edges))
	for _, e := range g.edges {
		g.sArena[g.sEnd[e.From]] = e
		g.sEnd[e.From]++
		g.pArena[g.pEnd[e.To]] = e
		g.pEnd[e.To]++
	}
	g.Succs, g.Preds = grow(g.Succs, n), grow(g.Preds, n)
	s, p = 0, 0
	for i := 0; i < n; i++ {
		g.Succs[i], s = g.sArena[s:g.sEnd[i]:g.sEnd[i]], g.sEnd[i]
		g.Preds[i], p = g.pArena[p:g.pEnd[i]:g.pEnd[i]], g.pEnd[i]
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
	memIdx := s.memIdx[:0] // loads and stores in order
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
			for _, m := range memIdx {
				prev := &r.Code[m]
				if !prev.IsStore() {
					continue
				}
				switch classify(s.memRefOf(prev), ref) {
				case AliasMust:
					g.addEdge(m, i, false) // should have been forwarded; keep order
				case AliasMay:
					g.addEdge(m, i, true) // breakable: speculative hoist allowed
				}
			}
			if !r.UseAsserts && lastExit >= 0 {
				g.addEdge(lastExit, i, false)
			}
			memIdx = append(memIdx, i)
		case in.IsStore():
			ref := s.memRefOf(in)
			for _, m := range memIdx {
				// Output dependence on an earlier store, or anti
				// dependence: the store may not move above a preceding
				// load it may alias with.
				if classify(s.memRefOf(&r.Code[m]), ref) != AliasNever {
					g.addEdge(m, i, false)
				}
			}
			if !r.UseAsserts && lastExit >= 0 {
				g.addEdge(lastExit, i, false)
			}
			memIdx = append(memIdx, i)
		case in.Op == Assert:
			// Asserts keep their relative order and precede every exit.
			if len(ctlIdx) > 0 {
				g.addEdge(ctlIdx[len(ctlIdx)-1], i, false)
			}
			ctlIdx = append(ctlIdx, i)
		case in.IsExit():
			// Exits are barriers: every earlier memory op and control
			// op must complete first; later memory ops stay after.
			for _, m := range memIdx {
				g.addEdge(m, i, false)
			}
			if len(ctlIdx) > 0 {
				g.addEdge(ctlIdx[len(ctlIdx)-1], i, false)
			}
			ctlIdx = append(ctlIdx, i)
			lastExit = i
		}
	}
	s.memIdx, s.ctlIdx = memIdx, ctlIdx
	g.finish()
	return g
}
