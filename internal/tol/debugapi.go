package tol

import (
	"darco/internal/codecache"
	"darco/internal/ir"
)

// Exported translation entry points for the debug toolchain: they
// rebuild the region for a cached block at a chosen optimization level
// without touching the live code cache, so the debugger can replay each
// pipeline stage in isolation. Both build in the TOL's translation
// scratch: a returned Block owns its code, a returned Region (and
// whatever its passes return) is valid until the next translation or
// debug-API call on this TOL.

// RetranslateAtLevel rebuilds the translation for a cached block with
// only the first `level` optimization stages enabled. The result is not
// inserted into the code cache.
func (t *TOL) RetranslateAtLevel(blk *codecache.Block, level OptLevel) (*codecache.Block, error) {
	if blk.Kind == codecache.KindBB {
		// BBM blocks run a fixed basic pipeline; level still applies.
		bb, err := t.bbAt(blk.Entry)
		if err != nil {
			return nil, err
		}
		x, err := t.bbRegion(&bb)
		if err != nil {
			return nil, err
		}
		return t.lowerBB(x, &bb, level)
	}
	plan, err := t.formSuperblock(blk.Entry)
	if err != nil {
		return nil, err
	}
	opts := t.profOpts(blk.Entry)
	opts.level = level
	nb, _, err := t.translateSuperblock(plan, opts)
	return nb, err
}

// BuildRegionIR reconstructs the (unoptimized) IR region for a cached
// block, for debug listings.
func (t *TOL) BuildRegionIR(blk *codecache.Block) (*ir.Region, error) {
	if blk.Kind == codecache.KindBB {
		bb, err := t.bbAt(blk.Entry)
		if err != nil {
			return nil, err
		}
		x, err := t.bbRegion(&bb)
		if err != nil {
			return nil, err
		}
		return x.r, nil
	}
	plan, err := t.formSuperblock(blk.Entry)
	if err != nil {
		return nil, err
	}
	x, _, _, err := t.buildSuperblockIR(plan, !t.profOpts(blk.Entry).noAsserts)
	if err != nil {
		return nil, err
	}
	return x.r, nil
}
