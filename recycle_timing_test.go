package darco_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"darco"
	"darco/internal/power"
	"darco/internal/workload"
)

// recycledTimingGolden holds, one line per scenario, what the timing
// roster's sessions report, as the code before the timing core's tables
// were recycled produced it.
const recycledTimingGolden = "testdata/recycled_timing.golden"

// timingKey is everything a timing session's result says about the
// modelled core: the TOL-charged Stats, the power report, and the
// predictor accuracy and L1D miss rate the summary prints (bit for bit).
func timingKey(r *darco.Result) string {
	return fmt.Sprintf("%+v power=%+v bp=%x l1d=%x",
		*r.Timing, *r.Power, r.Activity.BPAccuracy(), r.Activity.L1D.MissRate())
}

// TestRecycledTimingRosterMatchesGolden runs a timing roster with the
// power model attached twice in a process, serially and then on two
// workers, the second run's sessions on the timing tables the first
// run's released (and, on two workers, releasing and taking them at
// once), and requires every session's report to equal the committed
// golden: a recycled table that is not what a fresh one would be, such
// as a predictor not refilled, moves a report. (A cache that keeps its
// last line's shortcut only moves one miss later on these programs;
// TestRecycledCoreIsFresh in internal/timing catches that.) It runs
// under -short, so the race step covers it.
func TestRecycledTimingRosterMatchesGolden(t *testing.T) {
	var scs []darco.Scenario
	for _, name := range []string{"429.mcf", "433.milc", "401.bzip2"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		scs = append(scs, darco.Scenario{Profile: p, Scale: 0.05})
	}
	eng, err := darco.NewEngine(darco.WithConfig(darco.TimingConfig()), darco.WithPower(power.DefaultEnergies(), 1000))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, par := range []int{1, 2} {
		rep, err := eng.RunCampaign(t.Context(), scs, darco.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.Results {
			sr := &rep.Results[i]
			if sr.Err != nil {
				t.Fatalf("parallelism %d: %s: %v", par, sr.Scenario.Profile.Name, sr.Err)
			}
			keys = append(keys, timingKey(sr.Result))
		}
	}
	if *updateRecycled {
		first := strings.Join(keys[:len(scs)], "\n") + "\n"
		if err := os.WriteFile(recycledTimingGolden, []byte(first), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(recycledTimingGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(scs) {
		t.Fatalf("%s holds %d lines, want %d", recycledTimingGolden, len(want), len(scs))
	}
	for i, key := range keys {
		if w := want[i%len(want)]; key != w {
			t.Errorf("run %d, %s:\n got %s\nwant %s", i/len(want), scs[i%len(scs)].Profile.Name, key, w)
		}
	}
}
