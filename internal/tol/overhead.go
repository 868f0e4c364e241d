// Package tol implements the Translation Optimization Layer and the
// co-designed processor built around it: the three-mode execution engine
// (interpretation, basic-block translation, superblock optimization),
// profiling, superblock formation with control speculation, block
// chaining, the IBTC, and the TOL-overhead cost
// accounting the paper's evaluation is built on.
package tol

// OverheadCat buckets TOL execution into the categories of the paper's
// Fig. 7.
type OverheadCat uint8

// Overhead categories.
const (
	OvInterp   OverheadCat = iota // interpreting code before BBM promotion
	OvBBTrans                     // translating basic blocks
	OvSBTrans                     // creating, translating, optimizing superblocks
	OvPrologue                    // TOL <-> translated code transitions
	OvChaining                    // chain feasibility checks and patching
	OvLookup                      // code cache lookups at dispatch
	OvOther                       // main loop, statistics, initialization
	NumOverheadCats
)

func (c OverheadCat) String() string {
	switch c {
	case OvInterp:
		return "Interpreter"
	case OvBBTrans:
		return "BB Translator"
	case OvSBTrans:
		return "SB Translator"
	case OvPrologue:
		return "Prologue"
	case OvChaining:
		return "Chaining"
	case OvLookup:
		return "Code $ lookup"
	case OvOther:
		return "Others"
	}
	return "?"
}

// Costs is the TOL cost model: how many host instructions each TOL
// activity executes. The real TOL is compiled to the host ISA; this
// reproduction implements it in Go and charges calibrated host
// instruction counts instead (see DESIGN.md §2). Values are derived from
// the footprint of comparable software translators (interpreter dispatch
// ~tens of instructions per guest instruction; superblock optimization
// "thousands to tens of thousands of cycles" per region, §VI-E).
type Costs struct {
	InterpPerInsn    uint64 // decode + dispatch + execute, per guest instruction
	BBTransPerInsn   uint64 // BBM translation, per guest instruction
	BBTransFixed     uint64 // BBM per-block overhead (code cache bookkeeping)
	SBTransPerInsn   uint64 // SBM translation + optimization, per guest instruction
	SBTransFixed     uint64 // SBM per-region overhead (region formation, SSA, DDG)
	Prologue         uint64 // per TOL->code transition (stack management etc.)
	Epilogue         uint64 // per code->TOL transition
	ChainAttempt     uint64 // checking whether an exit can be chained
	ChainPatch       uint64 // patching a chainable exit
	IBTCInsert       uint64 // installing an IBTC entry
	Lookup           uint64 // one code cache lookup
	DispatchLoop     uint64 // TOL main-loop control per dispatch
	StatsPerDispatch uint64
	Init             uint64 // one-time TOL initialization
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		InterpPerInsn:    52,
		BBTransPerInsn:   260,
		BBTransFixed:     700,
		SBTransPerInsn:   280,
		SBTransFixed:     1100,
		Prologue:         16,
		Epilogue:         14,
		ChainAttempt:     38,
		ChainPatch:       26,
		IBTCInsert:       34,
		Lookup:           17,
		DispatchLoop:     11,
		StatsPerDispatch: 3,
		Init:             52000,
	}
}

// Overhead accumulates TOL host instructions by category.
type Overhead struct {
	Cat [NumOverheadCats]uint64
}

// Charge adds n host instructions to category c.
func (o *Overhead) Charge(c OverheadCat, n uint64) { o.Cat[c] += n }

// Total reports total TOL overhead host instructions.
func (o *Overhead) Total() uint64 {
	var t uint64
	for _, v := range o.Cat {
		t += v
	}
	return t
}
