package tol

import "testing"

// BenchmarkTranslateBB measures BBM translation throughput (decode →
// IR → basic optimizations → regalloc → codegen).
func BenchmarkTranslateBB(b *testing.B) {
	tl := setupTOLB(b, loopProgram)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := tl.translateBB(0x100c) // the loop body
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
