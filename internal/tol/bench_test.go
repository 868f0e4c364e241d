package tol

import (
	"testing"

	"darco/internal/workload"
)

// BenchmarkTranslateWorkload replays, in order and on the TOL that made
// them, every basic-block and superblock translation of a ragdoll run:
// the translator on the region sizes and shapes of the phys-startup
// benchmark workload, where BenchmarkTranslateBB/Superblock see one
// five-instruction loop. ns/translation is the mean over both kinds.
func BenchmarkTranslateWorkload(b *testing.B) {
	rp := recordTranslations(b, "ragdoll")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.replay(b)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rp.steps)), "ns/translation")
}

// translationReplay is every translation a TOL made while running a
// program, with what it takes to make each again on that TOL: a basic
// block's entry, or a superblock's plan and rebuild options.
type translationReplay struct {
	tl    *TOL
	steps []replayStep
}

type replayStep struct {
	plan *sbPlan // nil for a basic block
	bb   uint32
	opts sbOptions
}

// recordTranslations runs a suite profile to completion on a TOL alone
// (the whole image preloaded, syscalls serviced in place) and records
// its translations. A superblock's plan is copied out of the scratch in
// the observer, which runs straight after the translation it reports.
func recordTranslations(tb testing.TB, profile string) *translationReplay {
	tb.Helper()
	p, ok := workload.ByName(profile)
	if !ok {
		tb.Fatalf("no profile %s", profile)
	}
	im, err := p.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	rp := &translationReplay{}
	cfg := DefaultConfig()
	cfg.OnTranslation = func(ev TranslationEvent) {
		switch ev.Kind {
		case TransBB:
			rp.steps = append(rp.steps, replayStep{bb: ev.Entry})
		case TransSB: // a promotion, or the new region of a rebuild
			opts := rp.tl.profOpts(ev.Entry)
			opts.noAsserts = opts.noAsserts || rp.tl.SBCfg.NoAsserts
			rp.steps = append(rp.steps, replayStep{plan: clonePlan(&rp.tl.scratch.plan), opts: opts})
		}
	}
	tl, err := loadTOL(im, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rp.tl = tl
	if err := runAlone(tl); err != nil {
		tb.Fatal(err)
	}
	if tl.Stats.SBTranslations == 0 {
		tb.Fatalf("%s promoted no superblock", profile)
	}
	return rp
}

// clonePlan copies a plan out of the scratch; its steps' bodies are
// views of cached decoded blocks, which never change.
func clonePlan(p *sbPlan) *sbPlan {
	return &sbPlan{entry: p.entry, steps: append([]sbStep(nil), p.steps...)}
}

// replay makes every recorded translation again; the code cache is
// left as the run left it.
func (rp *translationReplay) replay(tb testing.TB) {
	for _, st := range rp.steps {
		var err error
		if st.plan == nil {
			_, err = rp.tl.translateBB(rp.tl.block(st.bb))
		} else {
			_, _, err = rp.tl.translateSuperblock(st.plan, st.opts)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkTranslateBB measures BBM translation throughput (decode →
// IR → basic optimizations → regalloc → codegen).
func BenchmarkTranslateBB(b *testing.B) {
	tl := setupTOLB(b, loopProgram)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := tl.translateBB(tl.block(0x100c)) // the loop body
		if err != nil || blk == nil {
			b.Fatalf("translate: %v %v", blk, err)
		}
	}
}

// BenchmarkTranslateSuperblock measures the full SBM pipeline including
// superblock formation, SSA optimization, DDG, scheduling and regalloc.
func BenchmarkTranslateSuperblock(b *testing.B) {
	tl := setupTOLB(b, loopProgram)
	// Warm the profiles so superblock formation has edge counts.
	if _, err := tl.Run(0); err != nil {
		b.Fatal(err)
	}
	plan, err := tl.formSuperblock(0x100c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tl.translateSuperblock(plan, sbOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchLoop measures end-to-end co-designed execution speed
// (guest instructions per benchmark second are the §VI-A metric).
func BenchmarkDispatchLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tl := setupTOLB(b, loopProgram)
		b.StartTimer()
		if _, err := tl.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

func setupTOLB(b *testing.B, src string) *TOL {
	cfg := DefaultConfig()
	cfg.BBThreshold = 4
	cfg.SBThreshold = 20
	return setupTOL(b, src, cfg)
}
