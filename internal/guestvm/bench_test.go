package guestvm_test

import (
	"testing"

	"darco/internal/guestvm"
	"darco/internal/workload"
)

// BenchmarkRun measures the authoritative emulator alone, a fresh VM per
// iteration as the controller has it: one long-block FP profile, one
// short-block branchy integer profile, one short physics program.
func BenchmarkRun(b *testing.B) {
	for _, name := range []string{"470.lbm", "400.perlbench", "continuous"} {
		p, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("no profile %s", name)
		}
		im, err := p.Generate()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var insns uint64
			for i := 0; i < b.N; i++ {
				vm, err := guestvm.New(im)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := vm.Run(guestvm.RunLimits{}); err != nil {
					b.Fatal(err)
				}
				insns += vm.InsnCount
			}
			b.ReportMetric(float64(insns)/b.Elapsed().Seconds()/1e6, "guest-MIPS")
		})
	}
}
