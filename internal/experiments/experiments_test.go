package experiments

import (
	"context"
	"strings"
	"testing"

	darco "darco"
	"darco/internal/workload"
)

func runAll(t *testing.T) []BenchResult {
	t.Helper()
	rs, err := RunSuites(0.04, darco.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestFiguresWellFormed(t *testing.T) {
	rs := runAll(t)
	if len(rs) != 31 {
		t.Fatalf("results %d", len(rs))
	}
	for _, fig := range []*Figure{Fig4(rs), Fig5(rs), Fig6(rs), Fig7(rs)} {
		if len(fig.Rows) != 31 {
			t.Errorf("%s: %d rows", fig.Title, len(fig.Rows))
		}
		if len(fig.Avgs) != 3 {
			t.Errorf("%s: %d averages", fig.Title, len(fig.Avgs))
		}
		for _, r := range fig.Rows {
			if len(r.Values) != len(fig.Columns) {
				t.Errorf("%s: row %s has %d values for %d columns",
					fig.Title, r.Name, len(r.Values), len(fig.Columns))
			}
		}
		out := fig.Format()
		if !strings.Contains(out, "SPECINT2006") || !strings.Contains(out, "ragdoll") {
			t.Errorf("%s: formatting missing rows", fig.Title)
		}
	}
}

func TestFig4SharesSumTo100(t *testing.T) {
	rs := runAll(t)
	fig := Fig4(rs)
	for _, r := range append(fig.Rows, fig.Avgs...) {
		sum := r.Values[0] + r.Values[1] + r.Values[2]
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: mode shares sum to %.2f", r.Name, sum)
		}
	}
}

func TestFig6Complements(t *testing.T) {
	rs := runAll(t)
	fig := Fig6(rs)
	for _, r := range fig.Rows {
		if s := r.Values[0] + r.Values[1]; s < 99.9 || s > 100.1 {
			t.Errorf("%s: TOL+App = %.2f", r.Name, s)
		}
	}
}

func TestFig7BreakdownSums(t *testing.T) {
	rs := runAll(t)
	fig := Fig7(rs)
	for _, r := range fig.Rows {
		var sum float64
		for _, v := range r.Values {
			sum += v
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: overhead breakdown sums to %.2f", r.Name, sum)
		}
	}
}

func TestTableSpeed(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	rows, err := TableSpeed(context.Background(), p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d, want functional + timing", len(rows))
	}
	for _, r := range rows {
		if r.GuestMIPS <= 0 {
			t.Errorf("speeds: %+v", rows)
		}
		if r.Obs != nil {
			t.Errorf("%s: counters attached without -obs", r.Config)
		}
	}
	// Timing simulation must be slower than pure functional emulation.
	if rows[1].GuestMIPS >= rows[0].GuestMIPS {
		t.Errorf("timing (%f) should be slower than functional (%f)",
			rows[1].GuestMIPS, rows[0].GuestMIPS)
	}
}

func TestTableSpeedObs(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	rows, err := TableSpeedObs(context.Background(), p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Obs == nil {
			t.Fatalf("%s: no counter snapshot", r.Config)
		}
		if r.Obs.BlockHits+r.Obs.BlockMisses == 0 {
			t.Errorf("%s: no block-cache lookups recorded", r.Config)
		}
	}
	// Counters are per-configuration (a shared instance would read
	// double on the second row), and the timing core does not perturb
	// the caches the first row measured.
	if *rows[0].Obs != *rows[1].Obs {
		t.Errorf("rows disagree on cache traffic for the same program:\n%+v\n%+v", *rows[0].Obs, *rows[1].Obs)
	}
}

func TestSortRows(t *testing.T) {
	rs := runAll(t)
	fig := Fig4(rs)
	SortRows(fig)
	// INT first, Physics last.
	if fig.Rows[0].Suite != workload.SuiteINT || fig.Rows[30].Suite != workload.SuitePhysics {
		t.Errorf("sort order wrong: %s .. %s", fig.Rows[0].Suite, fig.Rows[30].Suite)
	}
}
