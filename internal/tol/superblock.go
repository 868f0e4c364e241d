package tol

import (
	"darco/internal/codecache"
	"darco/internal/guest"
	"darco/internal/ir"
)

// Superblock formation (§V-B3): starting from a hot basic block, follow
// the biased direction of branches recorded by the BBM software edge
// counters, forming a single-entry region. With control speculation
// enabled the inter-block branches become asserts (single-exit); after
// excessive assert failures the region is recreated multi-exit. Single-
// basic-block loops are unrolled.

// SBConfig parameterises superblock formation.
type SBConfig struct {
	MaxInsns     int     // superblock instruction budget
	MaxBBs       int     // superblock basic-block budget
	BiasThresh   float64 // minimum branch bias to speculate a direction
	MinReach     float64 // minimum cumulative probability to extend
	UnrollFactor int     // single-BB loop unroll factor
	MaxSpecLoads int     // speculative load budget per region
	NoAsserts    bool    // ablation: always build multi-exit superblocks
	AssertLimit  uint64  // assert failures before rebuilding multi-exit
	SpecLimit    uint64  // memory speculation failures before rebuilding
}

// DefaultSBConfig mirrors the paper's description.
func DefaultSBConfig() SBConfig {
	return SBConfig{
		MaxInsns:     200,
		MaxBBs:       16,
		BiasThresh:   0.9,
		MinReach:     0.35,
		UnrollFactor: 4,
		MaxSpecLoads: 12,
		AssertLimit:  16,
		SpecLimit:    8,
	}
}

// branchProfile is the edge profile of one translated basic block.
type branchProfile struct {
	taken, notTaken uint64
}

// profileOf extracts the edge counters from a BBM block ending in a
// conditional branch.
func (t *TOL) profileOf(entry uint32) (branchProfile, bool) {
	blk, ok := t.Cache.Lookup(entry)
	if !ok || blk.Kind != codecache.KindBB {
		return branchProfile{}, false
	}
	var p branchProfile
	found := false
	for i := range blk.Exits {
		if e := &blk.Exits[i]; e.Info.Taken {
			p.taken += e.Count
			found = true
		} else {
			p.notTaken += e.Count
		}
	}
	return p, found
}

// sbStep is one basic block of a forming superblock plus the speculated
// direction of its terminator.
type sbStep struct {
	bb       bbInfo
	dirTaken bool // speculated direction (valid for conditional terminators)
	isLast   bool
}

// sbPlan is a formed superblock prior to translation. It lives in the
// TOL's scratch: forming the next plan, or translating a basic block,
// overwrites it.
type sbPlan struct {
	entry    uint32
	steps    []sbStep
	unrolled int // >1 when the region is an unrolled single-BB loop
}

// formSuperblock walks the biased path from start.
func (t *TOL) formSuperblock(start uint32) (*sbPlan, error) {
	cfg := t.SBCfg
	plan := &t.scratch.plan
	*plan = sbPlan{entry: start, steps: plan.steps[:0]}
	pc := start
	// visited reports whether the path already holds the block at next:
	// a step taken (start is the first) or the block being decoded.
	visited := func(next uint32) bool {
		for i := range plan.steps {
			if plan.steps[i].bb.entry == next {
				return true
			}
		}
		return next == pc
	}
	prob := 1.0
	insns := 0
	for {
		b, err := t.block(pc)
		bb, ok := bbOf(b)
		if !ok && err == nil && len(plan.steps) > 0 {
			// A cut block stays in the interpreter: the region ends
			// before it.
			plan.steps[len(plan.steps)-1].isLast = true
			return plan, nil
		}
		if !ok {
			return nil, noBB(pc, err)
		}
		step := sbStep{bb: bb}
		insns += bb.staticLen()
		d := bb.term.Op.Desc()
		stop := func() *sbPlan {
			step.isLast = true
			plan.steps = append(plan.steps, step)
			return plan
		}
		if len(plan.steps)+1 >= cfg.MaxBBs || insns >= cfg.MaxInsns {
			return stop(), nil
		}
		switch {
		case d.IsCond:
			prof, ok := t.profileOf(bb.entry)
			if !ok || prof.taken+prof.notTaken == 0 {
				return stop(), nil
			}
			pT := float64(prof.taken) / float64(prof.taken+prof.notTaken)
			var next uint32
			switch {
			case pT >= cfg.BiasThresh:
				step.dirTaken = true
				next = bb.term.Target(bb.termPC)
				prob *= pT
			case pT <= 1-cfg.BiasThresh:
				step.dirTaken = false
				next = bb.nextPC
				prob *= 1 - pT
			default:
				return stop(), nil // unbiased branch ends the superblock
			}
			if prob < cfg.MinReach {
				return stop(), nil
			}
			if next == start && len(plan.steps) == 0 && step.dirTaken && cfg.UnrollFactor > 1 {
				// Single-basic-block loop: unroll.
				plan.unrolled = cfg.UnrollFactor
				return stop(), nil
			}
			if visited(next) {
				return stop(), nil // larger loop: end the region
			}
			plan.steps = append(plan.steps, step)
			pc = next
		case bb.term.Op == guest.JMP:
			next := bb.term.Target(bb.termPC)
			if visited(next) {
				return stop(), nil
			}
			plan.steps = append(plan.steps, step)
			pc = next
		default:
			// Indirect branch, call, return, or untranslatable
			// terminator ends the superblock.
			return stop(), nil
		}
	}
}

// sbOptions records per-entry rebuild decisions after speculation
// failures.
type sbOptions struct {
	noAsserts bool // recreate without converting branches to asserts
	noMemSpec bool // recreate without speculative memory reordering
	level     OptLevel
}

// translateSuperblock lowers a plan to a code cache block.
func (t *TOL) translateSuperblock(plan *sbPlan, opts sbOptions) (*codecache.Block, ir.SchedStats, error) {
	useAsserts := !opts.noAsserts
	x, bbs, staticInsns, err := t.buildSuperblockIR(plan, useAsserts)
	if err != nil {
		return nil, ir.SchedStats{}, err
	}

	maxSpec := t.SBCfg.MaxSpecLoads
	if opts.noMemSpec {
		maxSpec = 0
	}
	level := opts.level
	if level == LevelDefault {
		level = LevelFull
	}
	gen, st, err := lowerRegion(x.r, true, maxSpec, level, t.Cfg.MutateRegion)
	if err != nil {
		return nil, st, err
	}
	return ownResult(&codecache.Block{
		Entry:      plan.entry,
		Kind:       codecache.KindSuperblock,
		UseAsserts: useAsserts,
		Unrolled:   plan.unrolled,
		GuestInsns: staticInsns,
		BBs:        bbs,
	}, gen), st, nil
}

// buildSuperblockIR translates a superblock plan into the scratch region.
func (t *TOL) buildSuperblockIR(plan *sbPlan, useAsserts bool) (*xlate, []uint32, int, error) {
	x := t.scratch.newXlate(plan.entry, useAsserts, t.Cfg.EagerFlags)
	bbs := make([]uint32, 0, max(len(plan.steps), plan.unrolled))
	staticInsns := 0

	emitStep := func(step *sbStep) error {
		bb := &step.bb
		bbs = append(bbs, bb.entry)
		staticInsns += bb.staticLen()
		if err := x.translateBody(bb); err != nil {
			return err
		}
		if step.isLast {
			return x.translateTerminator(bb)
		}
		// Interior conditional branch (or unrolled iteration): follow
		// the speculated direction.
		x.gpc = bb.termPC
		d := bb.term.Op.Desc()
		switch {
		case d.IsCond:
			cond := x.cond(bb.term.Op)
			if !step.dirTaken {
				cond = x.op2(ir.Xor, cond, x.constI(1))
			}
			x.guestInsns++
			x.guestBBs++
			if useAsserts {
				x.emitAssert(cond)
			} else {
				// Multi-exit superblock: off-path side exit.
				off := bb.nextPC
				if !step.dirTaken {
					off = bb.term.Target(bb.termPC)
				}
				notCond := x.op2(ir.Xor, cond, x.constI(1))
				x.emitExitIf(notCond, off, !step.dirTaken)
			}
		case bb.term.Op == guest.JMP:
			x.guestInsns++
			x.guestBBs++
		}
		return nil
	}

	// An unrolled loop repeats its one block with the branch speculated
	// taken; the final iteration, the plan's own step, keeps the branch.
	iter := sbStep{dirTaken: true}
	for it := 1; it < plan.unrolled; it++ {
		iter.bb = plan.steps[0].bb
		if err := emitStep(&iter); err != nil {
			return nil, nil, 0, err
		}
	}
	for i := range plan.steps {
		if err := emitStep(&plan.steps[i]); err != nil {
			return nil, nil, 0, err
		}
	}
	return x, bbs, staticInsns, nil
}
