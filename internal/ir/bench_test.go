package ir

import (
	"math/rand"
	"testing"
)

func benchRegion(seed int64) *Region {
	r := rand.New(rand.NewSource(seed))
	return randomRegion(r)
}

// cloneInto refills a scratch's region with a copy of base, the way a
// translator starts each region: the benchmarks below measure the passes
// on warm working memory, which is how the TOL runs them.
func cloneInto(s *Scratch, base *Region) *Region {
	r := s.NewRegion(base.Entry, base.UseAsserts)
	r.NumValues = base.NumValues
	for _, in := range base.Code {
		in.State = r.KeepState(in.State)
		r.Emit(in)
	}
	return r
}

func BenchmarkOptimizePipeline(b *testing.B) {
	base := benchRegion(42)
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := cloneInto(&s, base)
		reg.ForwardPass()
		reg.CSE()
		reg.DCE()
		reg.MemOpt()
		g := reg.BuildDDG()
		reg.Schedule(g, 8)
	}
}

func BenchmarkRegisterAllocation(b *testing.B) {
	base := benchRegion(43)
	base.ForwardPass()
	base.DCE()
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := cloneInto(&s, base)
		reg.Allocate()
	}
}

func BenchmarkCodegen(b *testing.B) {
	reg := benchRegion(44)
	reg.ForwardPass()
	reg.DCE()
	alloc := reg.Allocate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Generate(alloc); err != nil {
			b.Fatal(err)
		}
	}
}
