package tol_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"darco/internal/controller"
	"darco/internal/guest"
	"darco/internal/host"
	"darco/internal/tol"
	"darco/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/translations_*.golden from this tree's translator")

// emitted holds the opcodes of every block the golden runs saw inserted,
// and checked the golden files they compared, for TestEmittedHostOps.
var (
	emitted [host.NumOps]bool
	checked = map[string]bool{}
)

// translationLog runs the image to completion under cfg and returns one
// line per translation, in the order the TOL made them. The block is
// read in the observer, straight after its insertion: nothing has
// executed or chained it yet, so its code is as the translator left it.
func translationLog(t *testing.T, im *guest.Image, cfg controller.Config) []string {
	t.Helper()
	var ctl *controller.Controller
	var log []string
	cfg.TOL.OnTranslation = func(ev tol.TranslationEvent) {
		if ev.Kind != tol.TransBB && ev.Kind != tol.TransSB {
			return // a rebuild's new region reports itself as TransSB
		}
		blk, ok := ctl.CoD.Cache.Lookup(ev.Entry)
		if !ok {
			t.Fatalf("translation %v @%#x not resident in its own observer", ev.Kind, ev.Entry)
		}
		log = append(log, fmt.Sprintf("%08x %s %s", ev.Entry, blk.Kind, tol.BlockDigest(t, blk, ctl.CoD.Mem)))
		for i := range blk.Code {
			emitted[blk.Code[i].Op] = true
		}
	}
	var err error
	if ctl, err = controller.New(im, cfg); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Run(0); err != nil {
		t.Fatal(err)
	}
	return log
}

// checkGolden compares the runs' translation logs with the golden file,
// naming the first translation that differs.
func checkGolden(t *testing.T, file string, names []string, logs map[string][]string) {
	t.Helper()
	var out strings.Builder
	for _, name := range names {
		fmt.Fprintf(&out, "# %s: %d translations\n", name, len(logs[name]))
		for _, l := range logs[name] {
			out.WriteString(l + "\n")
		}
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	want := strings.Split(string(raw), "\n")
	got := strings.Split(out.String(), "\n")
	run := ""
	for i := range got {
		if strings.HasPrefix(got[i], "# ") {
			run = got[i]
		}
		if i >= len(want) || got[i] != want[i] {
			w := "<end of file>"
			if i < len(want) {
				w = want[i]
			}
			t.Fatalf("%s line %d (%s):\n  got  %s\n  want %s", file, i+1, run, got[i], w)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d lines recorded, %d produced", file, len(want), len(got))
	}
	checked[file] = true
}

// TestTranslationGoldenSuite pins every translation of five suite
// programs: an integer, a floating-point and the three trig-heavy
// physics programs the phys-startup benchmark workload runs. The last
// two run at full scale: a quarter of either is too short to promote a
// superblock.
func TestTranslationGoldenSuite(t *testing.T) {
	names := []string{"429.mcf", "433.milc", "continuous", "periodic", "ragdoll"}
	scales := map[string]float64{"periodic": 1, "ragdoll": 1}
	logs := map[string][]string{}
	for _, name := range names {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		scale := scales[name]
		if scale == 0 {
			scale = 0.25
		}
		im, err := p.Scale(scale).Generate()
		if err != nil {
			t.Fatal(err)
		}
		logs[name] = translationLog(t, im, controller.DefaultConfig())
	}
	checkGolden(t, "translations_suite.golden", names, logs)
}

// TestTranslationGoldenRandom pins every translation of the random
// programs under the three translator configurations that change what
// is emitted: single-exit superblocks, multi-exit ones, eager flags.
func TestTranslationGoldenRandom(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*tol.Config)
	}{
		{"default", func(*tol.Config) {}},
		{"noasserts", func(c *tol.Config) { c.SB.NoAsserts = true }},
		{"eagerflags", func(c *tol.Config) { c.EagerFlags = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var names []string
			logs := map[string][]string{}
			for seed := uint64(0); seed < 60; seed++ {
				im, err := workload.RandomProgram(seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := controller.DefaultConfig()
				// Aggressive promotion so random programs reach SBM.
				cfg.TOL.BBThreshold = 2
				cfg.TOL.SBThreshold = 6
				cfg.MaxGuestInsns = 30_000_000
				tc.set(&cfg.TOL)
				name := fmt.Sprintf("random-%d", seed)
				names = append(names, name)
				logs[name] = translationLog(t, im, cfg)
			}
			checkGolden(t, "translations_random_"+tc.name+".golden", names, logs)
		})
	}
}

// notEmitted names the defined host opcodes no golden run's translation
// holds, each with the reason it is still defined.
var notEmitted = map[host.Op]string{
	host.NOPH:    "the host VM retires synthetic profile-counter and IBTC-probe instructions as NOPH",
	host.CHAINED: "codecache.Cache.Chain patches an EXIT into it after insertion",
	host.LDB:     "ir codegen's Ld8 arm, which no workload's guest instructions reach",
	host.STB:     "ir codegen's St8 arm, which no workload's guest instructions reach",
	host.FDIVH:   "ir codegen's Fdiv arm, which no workload's guest instructions reach",
	host.FNEGH:   "ir codegen's Fneg arm, which no workload's guest instructions reach",
}

// TestEmittedHostOps: every defined host opcode appears in some
// translation of the golden runs or is on notEmitted with a reason, and
// nothing on notEmitted appears. An opcode the translator stops
// emitting fails here until it is listed or deleted; so does one it
// starts emitting while listed. Run alone, it runs the golden tests
// first.
func TestEmittedHostOps(t *testing.T) {
	if len(checked) < 4 {
		TestTranslationGoldenSuite(t)
		TestTranslationGoldenRandom(t)
	}
	for op := host.Op(0); int(op) < host.NumOps; op++ {
		why, listed := notEmitted[op]
		switch {
		case !op.Defined():
			if emitted[op] || listed {
				t.Errorf("undefined opcode %d is emitted (%v) or listed (%v)", op, emitted[op], listed)
			}
		case emitted[op] && listed:
			t.Errorf("%v is emitted but listed as not emitted: %s", op, why)
		case !emitted[op] && !listed:
			t.Errorf("%v is defined, but no translation emits it and notEmitted gives no reason", op)
		}
	}
}
