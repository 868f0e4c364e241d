package ir

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fuzzSource is a rand.Source that replays the fuzzer's bytes, eight
// per draw, and then a generator seeded by their checksum: every input
// names one region, and a mutated byte changes the draw it feeds.
type fuzzSource struct {
	data []byte
	rest rand.Source64
}

func newFuzzSource(data []byte) *fuzzSource {
	return &fuzzSource{data: data, rest: rand.NewSource(int64(crc32.ChecksumIEEE(data))).(rand.Source64)}
}

func (s *fuzzSource) Uint64() uint64 {
	if len(s.data) < 8 {
		return s.rest.Uint64()
	}
	v := binary.LittleEndian.Uint64(s.data)
	s.data = s.data[8:]
	return v
}

func (s *fuzzSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *fuzzSource) Seed(int64)   {}

// fuzzScratch is shared by every input a fuzz process runs, the way a
// translator's scratch is shared by every region it translates, so state
// one region leaves behind reaches the next.
var fuzzScratch Scratch

// FuzzRegionPipeline runs the superblock pipeline over a region its
// input generates and holds every pass the oracles in oracle_test.go
// specify to its oracle: CSE, MemOpt, BuildDDG, Schedule and Allocate
// must leave the oracle's exact instruction order, Spec marks, counts,
// SchedStats, successor lists, locations and slot counts.
//
// Input byte 0 picks the shape: bit 0 a spill-pressure region (more
// live values than either register pool holds), bit 1 a speculation
// budget of 8 loads instead of 0. The rest feed genRegion's random
// source. testdata/fuzz/FuzzRegionPipeline holds the seed corpus.
func FuzzRegionPipeline(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add([]byte{2})
	f.Add([]byte{3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var mode byte
		if len(data) > 0 {
			mode, data = data[0], data[1:]
		}
		pressure, maxSpec := mode&1 != 0, 0
		if mode&2 != 0 {
			maxSpec = 8
		}
		base := genRegion(rand.New(newFuzzSource(data)), pressure)
		reg, want := cloneInto(&fuzzScratch, base), cloneRegion(base)

		reg.ForwardPass()
		want.ForwardPass()
		if got, exp := reg.CSE(), oracleCSE(want); got != exp {
			t.Fatalf("CSE removed %d, oracle %d", got, exp)
		}
		sameCode(t, "CSE", reg, want)
		reg.DCE()
		want.DCE()
		if got, exp := reg.MemOpt(), oracleMemOpt(want); got != exp {
			t.Fatalf("MemOpt %+v, oracle %+v", got, exp)
		}
		sameCode(t, "MemOpt", reg, want)

		g, wg := reg.BuildDDG(), oracleBuildDDG(want)
		wantSuccs := wg.succs()
		for i := 0; i < len(reg.Code); i++ {
			if !slices.Equal(g.Succs[i], wantSuccs[i]) {
				t.Fatalf("BuildDDG: successors of %d are %v, oracle %v", i, g.Succs[i], wantSuccs[i])
			}
		}
		if got, exp := reg.Schedule(g, maxSpec), oracleSchedule(want, wg, maxSpec); got != exp {
			t.Fatalf("Schedule %+v, oracle %+v", got, exp)
		}
		sameCode(t, "Schedule", reg, want)

		a, wa := reg.Allocate(), oracleAllocate(want)
		if !slices.Equal(a.Loc, wa.Loc) {
			for v := range a.Loc {
				if a.Loc[v] != wa.Loc[v] {
					t.Fatalf("Allocate: v%d at %v, oracle %v", v, a.Loc[v], wa.Loc[v])
				}
			}
		}
		if a.IntSlots != wa.IntSlots || a.FPSlots != wa.FPSlots || a.Spills != wa.Spills {
			t.Fatalf("Allocate: %d/%d slots, %d spills; oracle %d/%d, %d",
				a.IntSlots, a.FPSlots, a.Spills, wa.IntSlots, wa.FPSlots, wa.Spills)
		}
	})
}

// TestPressureRegionsSpill: the fuzzer's spill-pressure shape does make
// both linear scans spill once the pipeline has optimized the region.
func TestPressureRegionsSpill(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		reg := genRegion(rand.New(rand.NewSource(seed)), true)
		reg.ForwardPass()
		reg.CSE()
		reg.DCE()
		reg.MemOpt()
		reg.Schedule(reg.BuildDDG(), 8)
		if a := reg.Allocate(); a.IntSlots == 0 || a.FPSlots == 0 {
			t.Errorf("seed %d: %d int and %d FP slots, want both spilled", seed, a.IntSlots, a.FPSlots)
		}
	}
}

// sameCode fails unless the two regions hold the same instructions in
// the same order, field for field (float immediates by their bits).
func sameCode(t *testing.T, pass string, got, want *Region) {
	t.Helper()
	if len(got.Code) != len(want.Code) {
		t.Fatalf("%s: %d instructions, oracle %d\ngot:\n%s\noracle:\n%s", pass, len(got.Code), len(want.Code), got, want)
	}
	for i := range got.Code {
		x, y := &got.Code[i], &want.Code[i]
		if x.Op != y.Op || x.Dst != y.Dst || x.A != y.A || x.B != y.B || x.Arch != y.Arch ||
			x.ImmU != y.ImmU || x.Off != y.Off || math.Float64bits(x.ImmF) != math.Float64bits(y.ImmF) ||
			x.GPC != y.GPC || x.Spec != y.Spec || x.Meta != y.Meta || !slices.Equal(x.State, y.State) {
			t.Fatalf("%s: instruction %d is %s, oracle %s", pass, i, x.debugString(), y.debugString())
		}
	}
}
