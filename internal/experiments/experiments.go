// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each experiment returns structured rows; the
// darco-bench command prints them in the paper's format and the
// top-level benchmarks report them as metrics. EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	darco "darco"
	"darco/internal/tol"
	"darco/internal/workload"
	"darco/obs"
)

// BenchResult is one benchmark's full-stack measurement.
type BenchResult struct {
	Profile workload.Profile
	Res     *darco.Result
}

// RunSuites executes every paper benchmark at the given scale on the
// functional stack (no timing), the configuration used for Figs. 4–7.
// The benchmarks run as a parallel campaign on a full worker pool;
// per-scenario statistics are identical to a serial run.
func RunSuites(scale float64, cfg darco.Config) ([]BenchResult, error) {
	return RunSuitesContext(context.Background(), scale, cfg, 0)
}

// RunSuitesContext is RunSuites with cancellation and an explicit
// worker-pool width (parallelism < 1 = GOMAXPROCS).
func RunSuitesContext(ctx context.Context, scale float64, cfg darco.Config, parallelism int) ([]BenchResult, error) {
	rep, err := SuiteCampaign(ctx, scale, cfg, darco.WithParallelism(parallelism))
	if err != nil {
		return nil, err
	}
	return BenchResults(rep)
}

// SuiteCampaign runs the paper's benchmark roster as a campaign and
// returns the full report (per-scenario wall times, failures, pool
// utilisation) for callers that print or aggregate it.
func SuiteCampaign(ctx context.Context, scale float64, cfg darco.Config, opts ...darco.CampaignOption) (*darco.CampaignReport, error) {
	eng, err := darco.NewEngine(darco.WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	return eng.RunCampaign(ctx, darco.SuiteScenarios(scale), opts...)
}

// BenchResults converts a campaign report into the per-benchmark rows
// the figure builders consume, failing on the first scenario error.
func BenchResults(rep *darco.CampaignReport) ([]BenchResult, error) {
	out := make([]BenchResult, 0, len(rep.Results))
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Err != nil {
			return nil, r.Err
		}
		out = append(out, BenchResult{Profile: r.Scenario.Profile, Res: r.Result})
	}
	return out, nil
}

// suiteAverage computes arithmetic means of a metric per suite, in the
// paper's suite order.
func suiteAverage(rs []BenchResult, f func(*BenchResult) float64) []Row {
	suites := []string{workload.SuiteINT, workload.SuiteFP, workload.SuitePhysics}
	var rows []Row
	for _, s := range suites {
		var sum float64
		var n int
		for i := range rs {
			if rs[i].Profile.Suite == s {
				sum += f(&rs[i])
				n++
			}
		}
		if n > 0 {
			rows = append(rows, Row{Name: s, Values: []float64{sum / float64(n)}})
		}
	}
	return rows
}

// Row is one labelled series entry.
type Row struct {
	Name   string
	Suite  string
	Values []float64
}

// Figure is one reproduced figure: named value columns per benchmark
// plus suite averages.
type Figure struct {
	Title   string
	Columns []string
	Rows    []Row
	Avgs    []Row // per-suite averages (single- or multi-column)
}

// Format renders the figure as an aligned text table.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-18s", "benchmark")
	for _, c := range f.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-18s", r.Name)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%12.2f", v)
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("-", 18+12*len(f.Columns)) + "\n")
	for _, r := range f.Avgs {
		fmt.Fprintf(&b, "%-18s", r.Name)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%12.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig4 reproduces "Dynamic x86 instruction distribution in IM, BBM and
// SBM" (percent).
func Fig4(rs []BenchResult) *Figure {
	f := &Figure{
		Title:   "Fig. 4: dynamic guest instruction distribution per mode (%)",
		Columns: []string{"IM", "BBM", "SBM"},
	}
	for i := range rs {
		im, bbm, sbm := rs[i].Res.ModeShares()
		f.Rows = append(f.Rows, Row{Name: rs[i].Profile.Name, Suite: rs[i].Profile.Suite,
			Values: []float64{100 * im, 100 * bbm, 100 * sbm}})
	}
	suites := []string{workload.SuiteINT, workload.SuiteFP, workload.SuitePhysics}
	for _, s := range suites {
		var a, b, c float64
		var n int
		for i := range rs {
			if rs[i].Profile.Suite != s {
				continue
			}
			im, bbm, sbm := rs[i].Res.ModeShares()
			a += im
			b += bbm
			c += sbm
			n++
		}
		if n > 0 {
			f.Avgs = append(f.Avgs, Row{Name: s,
				Values: []float64{100 * a / float64(n), 100 * b / float64(n), 100 * c / float64(n)}})
		}
	}
	return f
}

// Fig5 reproduces "Host instructions per x86 instruction in SBM".
func Fig5(rs []BenchResult) *Figure {
	f := &Figure{
		Title:   "Fig. 5: host instructions per guest instruction in SBM",
		Columns: []string{"host/guest"},
	}
	for i := range rs {
		f.Rows = append(f.Rows, Row{Name: rs[i].Profile.Name, Suite: rs[i].Profile.Suite,
			Values: []float64{rs[i].Res.EmulationCostSBM()}})
	}
	f.Avgs = suiteAverage(rs, func(r *BenchResult) float64 { return r.Res.EmulationCostSBM() })
	return f
}

// Fig6 reproduces "Overall host dynamic instruction distribution":
// TOL overhead vs application instructions (percent of host stream).
func Fig6(rs []BenchResult) *Figure {
	f := &Figure{
		Title:   "Fig. 6: TOL overhead share of the host dynamic instruction stream (%)",
		Columns: []string{"TOL", "App"},
	}
	for i := range rs {
		ov := 100 * rs[i].Res.TOLOverheadFrac()
		f.Rows = append(f.Rows, Row{Name: rs[i].Profile.Name, Suite: rs[i].Profile.Suite,
			Values: []float64{ov, 100 - ov}})
	}
	f.Avgs = suiteAverage(rs, func(r *BenchResult) float64 { return 100 * r.Res.TOLOverheadFrac() })
	return f
}

// Fig7 reproduces "Dynamic TOL Overhead Distribution" (percent of TOL
// overhead per category).
func Fig7(rs []BenchResult) *Figure {
	cats := []tol.OverheadCat{tol.OvInterp, tol.OvBBTrans, tol.OvSBTrans,
		tol.OvPrologue, tol.OvChaining, tol.OvLookup, tol.OvOther}
	f := &Figure{Title: "Fig. 7: TOL overhead breakdown (%)"}
	for _, c := range cats {
		f.Columns = append(f.Columns, c.String())
	}
	addRow := func(name string, ov *tol.Overhead) Row {
		total := float64(ov.Total())
		row := Row{Name: name}
		for _, c := range cats {
			v := 0.0
			if total > 0 {
				v = 100 * float64(ov.Cat[c]) / total
			}
			row.Values = append(row.Values, v)
		}
		return row
	}
	for i := range rs {
		row := addRow(rs[i].Profile.Name, &rs[i].Res.Overhead)
		row.Suite = rs[i].Profile.Suite
		f.Rows = append(f.Rows, row)
	}
	suites := []string{workload.SuiteINT, workload.SuiteFP, workload.SuitePhysics}
	for _, s := range suites {
		var agg tol.Overhead
		for i := range rs {
			if rs[i].Profile.Suite != s {
				continue
			}
			for c := range agg.Cat {
				agg.Cat[c] += rs[i].Res.Overhead.Cat[c]
			}
		}
		f.Avgs = append(f.Avgs, addRow(s, &agg))
	}
	return f
}

// SpeedRow is one row of the §VI-A speed table. Obs is non-nil only
// when the row ran with profiling counters attached (TableSpeedObs).
type SpeedRow struct {
	Config    string
	GuestMIPS float64
	HostMIPS  float64
	Wall      time.Duration
	Obs       *obs.EngineCountersSnapshot
}

// TableSpeed reproduces the §VI-A emulation/simulation speed table on a
// representative benchmark: guest and host instruction rates with the
// timing simulator off and on.
func TableSpeed(ctx context.Context, p workload.Profile, scale float64) ([]SpeedRow, error) {
	return tableSpeed(ctx, p, scale, false)
}

// TableSpeedObs is TableSpeed with a fresh set of hot-path profiling
// counters attached per configuration, so each row carries its own
// cache-hit snapshot (darco-bench -obs).
func TableSpeedObs(ctx context.Context, p workload.Profile, scale float64) ([]SpeedRow, error) {
	return tableSpeed(ctx, p, scale, true)
}

func tableSpeed(ctx context.Context, p workload.Profile, scale float64, withObs bool) ([]SpeedRow, error) {
	im, err := workload.CachedImage(p.Scale(scale))
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name string
		cfg  darco.Config
	}{
		{"functional emulation", darco.DefaultConfig()},
		{"with timing simulator", darco.TimingConfig()},
	}
	var rows []SpeedRow
	for _, c := range configs {
		opts := []darco.Option{darco.WithConfig(c.cfg)}
		if withObs {
			opts = append(opts, darco.WithObsCounters(&obs.EngineCounters{}))
		}
		eng, err := darco.NewEngine(opts...)
		if err != nil {
			return nil, err
		}
		res, err := eng.Run(ctx, im)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SpeedRow{Config: c.name,
			GuestMIPS: res.GuestMIPS, HostMIPS: res.HostMIPS, Wall: res.Wall, Obs: res.Obs})
	}
	return rows, nil
}

// SortRows orders figure rows in the paper's suite order (stable).
func SortRows(f *Figure) {
	order := map[string]int{workload.SuiteINT: 0, workload.SuiteFP: 1, workload.SuitePhysics: 2}
	sort.SliceStable(f.Rows, func(i, j int) bool {
		return order[f.Rows[i].Suite] < order[f.Rows[j].Suite]
	})
}
