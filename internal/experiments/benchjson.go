package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	darco "darco"
	"darco/internal/workload"
	"darco/obs"
	"darco/perf"
	"darco/telemetry"
)

// BenchEntry and BenchSnapshot are the BENCH_<n>.json schema, owned by
// darco/perf (the regression gate reads the same types); this package
// keeps the collection side — actually running the benches with
// profiling counters attached.
type (
	BenchEntry    = perf.Bench
	BenchSnapshot = perf.Snapshot
)

// NextBenchPath returns the path of the next BENCH_<n>.json in dir.
func NextBenchPath(dir string) (string, error) { return perf.NextBenchPath(dir) }

// measure runs f once and reports its wall time and allocation cost.
func measure(f func() error) (perf.Bench, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return perf.Bench{
		NsPerOp:     float64(wall.Nanoseconds()),
		AllocsPerOp: float64(after.Mallocs - before.Mallocs),
		BytesPerOp:  float64(after.TotalAlloc - before.TotalAlloc),
	}, err
}

// sessionsPerRow is how many measured sessions a single-session row
// averages. What the runtime allocates when a per-processor cache of
// goroutines, sudogs or timers misses depends on which processor each of
// a session's two goroutines ran on: one session's count spread by up
// to a dozen allocations between collections, 3 % of a row's count once
// sessions recycled their working memory, while the gate tolerates 1 %.
// The caches miss about once per window, not once per session, so the
// mean of eight spreads an eighth as wide.
const sessionsPerRow = 8

// measureSessions is measure for a single-session row: it runs session
// n times and reports the mean cost of one. It collects first and holds
// the collector off until the last session returns, so the row's
// allocs/op do not depend on whether and when a collection ran: at
// GOGC=10 one collection during a row added up to 1 % to its
// allocations, at no site of the simulator's own. A session allocates
// under a megabyte.
func measureSessions(n int, session func() error) (perf.Bench, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b, err := measure(func() error {
		for range n {
			if err := session(); err != nil {
				return err
			}
		}
		return nil
	})
	b.NsPerOp /= float64(n)
	b.AllocsPerOp /= float64(n)
	b.BytesPerOp /= float64(n)
	return b, err
}

// CollectBenchSnapshot measures the Table-Speed benches and the
// Figs. 4–7 suite campaign at the given workload scale, writing the
// schema-2 snapshot shape: every measured row carries its engine
// profiling-counter snapshot (the machine-independent signals the
// darco-perf gate compares exactly), and the four figure rows record
// cost_shared = "SuiteCampaign" instead of duplicating the one
// measured campaign cost.
func CollectBenchSnapshot(ctx context.Context, scale float64) (*perf.Snapshot, error) {
	snap := &perf.Snapshot{
		Schema:    perf.SchemaVersion,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Scale:     scale,
		Benches:   make(map[string]perf.Bench),
	}

	p, ok := workload.ByName("429.mcf")
	if !ok {
		return nil, fmt.Errorf("experiments: 429.mcf missing from roster")
	}

	// speed measures the sessions of one row, each 429.mcf at scale
	// run as a served job's are: a one-scenario campaign, which releases
	// the session's working memory to the next one, with counters of its
	// own. windowed attaches a default-interval telemetry windower
	// first, the subscription every served job's sessions carry.
	//
	// Two sessions run unmeasured first. The first leaves on the free
	// lists everything a session takes from them, so the measured ones
	// allocate none of it whatever ran before them in the process; the
	// second leaves the runtime's own caches (goroutines, sudogs,
	// timers) as the measured sessions find them. The row is the mean
	// of sessionsPerRow measured sessions (see measureSessions), its
	// counters the last one's.
	speed := func(name string, cfg darco.Config, windowed bool) error {
		eng, err := darco.NewEngine(darco.WithConfig(cfg))
		if err != nil {
			return err
		}
		var res *darco.Result
		session := func() error {
			sc := darco.Scenario{Profile: p, Scale: scale,
				Options: []darco.Option{darco.WithObsCounters(&obs.EngineCounters{})}}
			opts := []darco.CampaignOption{darco.WithParallelism(1)}
			var wd *telemetry.Windower
			if windowed {
				wd = telemetry.NewWindower(telemetry.DefaultInterval, func(telemetry.Window) {})
				opts = append(opts, darco.WithScenarioSession(func(_ int, _ *darco.Scenario, s *darco.Session) { wd.Attach(s) }))
			}
			rep, err := eng.RunCampaign(ctx, []darco.Scenario{sc}, opts...)
			if err != nil {
				return err
			}
			if wd != nil {
				wd.Flush()
			}
			sr := &rep.Results[0]
			res = sr.Result
			return sr.Err
		}
		for range 2 {
			if err := session(); err != nil {
				return err
			}
		}
		entry, err := measureSessions(sessionsPerRow, session)
		if err != nil {
			return err
		}
		if cfg.Timing != nil {
			entry.Metrics = map[string]float64{
				"guest-KIPS": res.GuestMIPS * 1000,
				"host-MIPS":  res.HostMIPS,
			}
		} else {
			entry.Metrics = map[string]float64{
				"guest-MIPS": res.GuestMIPS,
				"host-MIPS":  res.HostMIPS,
			}
		}
		entry.Counters = res.Obs
		snap.Benches[name] = entry
		return nil
	}
	if err := speed("TableSpeedFunctional", darco.DefaultConfig(), false); err != nil {
		return nil, err
	}
	// The same run with job telemetry attached: its allocs/op and
	// counters must stay those of the bare row (the gate holds them),
	// and its ns/op within a few percent.
	if err := speed("TableSpeedFunctionalTelemetry", darco.DefaultConfig(), true); err != nil {
		return nil, err
	}
	if err := speed("TableSpeedTiming", darco.TimingConfig(), false); err != nil {
		return nil, err
	}

	// One parallel suite campaign backs all four figures. The counters
	// are shared across the campaign's scenarios; the per-field sums
	// are order-independent, so the snapshot is deterministic at any
	// parallelism.
	ctrs := &obs.EngineCounters{}
	var rs []BenchResult
	campaign, err := measure(func() error {
		eng, err := darco.NewEngine(darco.WithConfig(darco.DefaultConfig()), darco.WithObsCounters(ctrs))
		if err != nil {
			return err
		}
		rep, err := eng.RunCampaign(ctx, darco.SuiteScenarios(scale))
		if err != nil {
			return err
		}
		rs, err = BenchResults(rep)
		return err
	})
	if err != nil {
		return nil, err
	}
	cs := ctrs.Snapshot()
	campaign.Counters = &cs
	snap.Benches[perf.SuiteCampaignBench] = campaign

	// The figure rows are different views of the campaign above: they
	// carry their headline metrics and an explicit cost_shared marker
	// instead of a copy of the campaign's measured cost, so the gate
	// sees one sample, not five.
	fig := func(name string, metrics map[string]float64) {
		snap.Benches[name] = perf.Bench{
			Metrics:    metrics,
			CostShared: perf.SuiteCampaignBench,
		}
	}

	sbm := func(r *BenchResult) float64 { _, _, s := r.Res.ModeShares(); return 100 * s }
	cost := func(r *BenchResult) float64 { return r.Res.EmulationCostSBM() }
	ov := func(r *BenchResult) float64 { return 100 * r.Res.TOLOverheadFrac() }
	avg := func(suite string, f func(*BenchResult) float64) float64 {
		var sum float64
		var n int
		for i := range rs {
			if rs[i].Profile.Suite == suite {
				sum += f(&rs[i])
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	fig("Fig4ModeDistribution", map[string]float64{
		"SBM%-INT":  avg(workload.SuiteINT, sbm),
		"SBM%-FP":   avg(workload.SuiteFP, sbm),
		"SBM%-Phys": avg(workload.SuitePhysics, sbm),
	})
	fig("Fig5EmulationCost", map[string]float64{
		"cost-INT":  avg(workload.SuiteINT, cost),
		"cost-FP":   avg(workload.SuiteFP, cost),
		"cost-Phys": avg(workload.SuitePhysics, cost),
	})
	fig("Fig6TOLOverhead", map[string]float64{
		"TOL%-INT":  avg(workload.SuiteINT, ov),
		"TOL%-FP":   avg(workload.SuiteFP, ov),
		"TOL%-Phys": avg(workload.SuitePhysics, ov),
	})
	f7 := Fig7(rs)
	var interp, bbt, sbt float64
	for _, r := range f7.Avgs {
		interp += r.Values[0]
		bbt += r.Values[1]
		sbt += r.Values[2]
	}
	if n := float64(len(f7.Avgs)); n > 0 {
		fig("Fig7OverheadBreakdown", map[string]float64{
			"interp%":  interp / n,
			"bbtrans%": bbt / n,
			"sbtrans%": sbt / n,
		})
	}
	return snap, nil
}
