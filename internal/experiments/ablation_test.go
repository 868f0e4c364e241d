package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	darco "darco"
	"darco/internal/timing"
	"darco/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ablation.golden from this tree")

// ablationToggle is one design choice of the TOL turned off.
type ablationToggle struct {
	name   string
	mutate func(*darco.Config)
	timed  bool // also measured in cycles, with the timing simulator attached
}

var ablationToggles = []ablationToggle{
	{"default", func(*darco.Config) {}, true},
	{"EagerFlags", func(c *darco.Config) { c.TOL.EagerFlags = true }, false},
	{"DisableChaining", func(c *darco.Config) { c.TOL.DisableChaining = true }, false},
	{"SB.NoAsserts", func(c *darco.Config) { c.TOL.SB.NoAsserts = true }, true},
	{"SB.MaxSpecLoads=0", func(c *darco.Config) { c.TOL.SB.MaxSpecLoads = 0 }, true},
}

// ablationCounts sums one suite's (or the roster's) deterministic counts.
type ablationCounts struct {
	app, tol, assertRebuilds, specRebuilds, unrolled, cycles uint64
}

// ablationSums runs the roster at scale under cfg and returns the counts
// per suite, in the paper's suite order, then the roster total.
func ablationSums(t *testing.T, scale float64, cfg darco.Config) [4]ablationCounts {
	t.Helper()
	rs, err := RunSuites(scale, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out [4]ablationCounts
	for i := range rs {
		r := rs[i].Res
		c := ablationCounts{
			app: r.HostAppInsns, tol: r.Overhead.Total(),
			assertRebuilds: r.Stats.AssertRebuilds, specRebuilds: r.Stats.SpecRebuilds,
			unrolled: r.Stats.UnrolledLoops,
		}
		if r.Timing != nil {
			c.cycles = r.Timing.Cycles
		}
		for s, suite := range ablationSuiteNames[:3] {
			if rs[i].Profile.Suite == suite {
				out[s].add(c)
			}
		}
		out[3].add(c)
	}
	return out
}

func (a *ablationCounts) add(c ablationCounts) {
	a.app += c.app
	a.tol += c.tol
	a.assertRebuilds += c.assertRebuilds
	a.specRebuilds += c.specRebuilds
	a.unrolled += c.unrolled
	a.cycles += c.cycles
}

var ablationSuiteNames = [4]string{workload.SuiteINT, workload.SuiteFP, workload.SuitePhysics, "total"}

// TestAblationGolden pins the suite ablation table: for each design
// toggle, the host instructions emulating the application, the TOL
// overhead, the assert and speculation rebuilds and the unrolled loops
// of the 31-profile roster, per suite and in total, from functional runs
// at scales 0.5 and 1; and the cycles at scale 0.5 with the timing
// simulator attached for the toggles that move them. Every value is an
// exact count. go test -run TestAblationGolden -update re-records it.
func TestAblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the roster 13 times")
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-5s %-18s %-12s %12s %12s %9s %9s %9s\n",
		"scale", "toggle", "suite", "app_insns", "tol_insns", "assert_rb", "spec_rb", "unrolled")
	for _, scale := range []float64{0.5, 1} {
		for _, tg := range ablationToggles {
			cfg := darco.DefaultConfig()
			tg.mutate(&cfg)
			sums := ablationSums(t, scale, cfg)
			for s, c := range sums {
				fmt.Fprintf(&b, "%-5g %-18s %-12s %12d %12d %9d %9d %9d\n",
					scale, tg.name, ablationSuiteNames[s], c.app, c.tol, c.assertRebuilds, c.specRebuilds, c.unrolled)
			}
		}
	}
	fmt.Fprintf(&b, "\n%-5s %-18s %-12s %12s\n", "scale", "toggle", "suite", "cycles")
	for _, tg := range ablationToggles {
		if !tg.timed {
			continue
		}
		cfg := darco.DefaultConfig()
		tg.mutate(&cfg)
		tc := timing.DefaultConfig()
		cfg.Timing = &tc
		sums := ablationSums(t, 0.5, cfg)
		for s, c := range sums {
			fmt.Fprintf(&b, "%-5g %-18s %-12s %12d\n", 0.5, tg.name, ablationSuiteNames[s], c.cycles)
		}
	}

	file := filepath.Join("testdata", "ablation.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, file, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", file, len(gl), len(wl))
	}
}
