package darco_test

import (
	"context"
	"testing"

	darco "darco"

	"darco/internal/tol"
	"darco/internal/workload"
)

// The hot-path overhaul (two-level guest memory, flat decode and
// interpreter-block caches, profile-entry consolidation, batched
// overhead accounting) must not change a single retired-instruction
// count: the paper's figures are derived from Stats. These goldens were
// captured from full runs on the unoptimized seed (commit e953460) and
// pin bit-identity, per-category overhead included.
var statsGoldens = []struct {
	bench    string
	scale    float64
	stats    tol.Stats
	overhead [tol.NumOverheadCats]uint64
	hostApp  uint64
}{
	{
		bench: "429.mcf", scale: 0.25,
		stats: tol.Stats{
			GuestInsnsIM: 9916, GuestInsnsBBM: 165252, GuestInsnsSBM: 1253739,
			GuestBBs: 162047, HostInsnsBBM: 669500, HostInsnsSBM: 4090569,
			Dispatches: 1640, BBTranslations: 74, SBTranslations: 85,
			AssertRebuilds: 27, SpecRebuilds: 3, SpecLoadsSched: 0,
			UnrolledLoops: 0, InterpBBs: 1146, Syscalls: 2, PageRequests: 9,
		},
		overhead: [tol.NumOverheadCats]uint64{515528, 219760, 690740, 26670, 21144, 27880, 74960},
		hostApp:  4867397,
	},
	{
		bench: "429.mcf", scale: 0.5,
		stats: tol.Stats{
			GuestInsnsIM: 9916, GuestInsnsBBM: 172857, GuestInsnsSBM: 2675029,
			GuestBBs: 324092, HostInsnsBBM: 690625, HostInsnsSBM: 9559799,
			Dispatches: 1668, BBTranslations: 74, SBTranslations: 85,
			AssertRebuilds: 27, SpecRebuilds: 3, SpecLoadsSched: 0,
			UnrolledLoops: 0, InterpBBs: 1146, Syscalls: 2, PageRequests: 9,
		},
		overhead: [tol.NumOverheadCats]uint64{515528, 219760, 690740, 27510, 22208, 28356, 75352},
		hostApp:  10367502,
	},
	{
		bench: "433.milc", scale: 0.25,
		stats: tol.Stats{
			GuestInsnsIM: 8836, GuestInsnsBBM: 124020, GuestInsnsSBM: 1155236,
			GuestBBs: 96722, HostInsnsBBM: 321042, HostInsnsSBM: 2519579,
			Dispatches: 1138, BBTranslations: 56, SBTranslations: 39,
			AssertRebuilds: 13, SpecRebuilds: 0, SpecLoadsSched: 9,
			UnrolledLoops: 0, InterpBBs: 734, Syscalls: 2, PageRequests: 10,
		},
		overhead: [tol.NumOverheadCats]uint64{459368, 220680, 335220, 16980, 17636, 19346, 67932},
		hostApp:  2898299,
	},
}

// TestStatsBitIdenticalToSeed runs the golden scenarios end to end
// (validation on, like the figure campaigns) and requires every counter
// to match the unoptimized seed exactly.
func TestStatsBitIdenticalToSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full emulation runs")
	}
	for _, g := range statsGoldens {
		g := g
		t.Run(g.bench, func(t *testing.T) {
			p, ok := workload.ByName(g.bench)
			if !ok {
				t.Fatalf("unknown workload %s", g.bench)
			}
			im, err := workload.CachedImage(p.Scale(g.scale))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := darco.NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background(), im)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != g.stats {
				t.Errorf("stats diverge from seed:\n got %+v\nwant %+v", res.Stats, g.stats)
			}
			if res.Overhead.Cat != g.overhead {
				t.Errorf("overhead diverges from seed:\n got %v\nwant %v", res.Overhead.Cat, g.overhead)
			}
			if res.HostAppInsns != g.hostApp {
				t.Errorf("host app insns %d, seed %d", res.HostAppInsns, g.hostApp)
			}
		})
	}
}

// TestStatsGoldenPipelinedTiming reruns the golden scenarios with the
// timing simulator attached: the functional counters must still match
// the unoptimized seed exactly — attaching a timing consumer must never
// perturb emulation.
func TestStatsGoldenPipelinedTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("full timing-mode emulation runs")
	}
	for _, g := range statsGoldens {
		g := g
		t.Run(g.bench, func(t *testing.T) {
			p, ok := workload.ByName(g.bench)
			if !ok {
				t.Fatalf("unknown workload %s", g.bench)
			}
			im, err := workload.CachedImage(p.Scale(g.scale))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := darco.NewEngine(darco.WithConfig(darco.TimingConfig()))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background(), im)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != g.stats {
				t.Errorf("stats diverge from seed with timing attached:\n got %+v\nwant %+v", res.Stats, g.stats)
			}
			if res.Overhead.Cat != g.overhead {
				t.Errorf("overhead diverges from seed with timing attached")
			}
			if res.HostAppInsns != g.hostApp {
				t.Errorf("host app insns %d, seed %d", res.HostAppInsns, g.hostApp)
			}
			if res.Timing == nil {
				t.Fatal("timing stats missing")
			}
		})
	}
}

// TestRunRepeatable pins run-to-run determinism of the optimized stack:
// two fresh engines over the same image produce identical statistics.
func TestRunRepeatable(t *testing.T) {
	p, _ := workload.ByName("470.lbm")
	im, err := workload.CachedImage(p.Scale(0.2))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *darco.Result {
		eng, err := darco.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), im)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats != b.Stats || a.Overhead != b.Overhead || a.HostAppInsns != b.HostAppInsns {
		t.Errorf("non-deterministic run:\n a %+v\n b %+v", a.Stats, b.Stats)
	}
}
