package darco_test

// Benchmark harness regenerating the paper's evaluation (§VI). One
// benchmark per table/figure, plus ablation benches for the design
// choices DESIGN.md calls out. Figures are reported through
// b.ReportMetric so `go test -bench` prints the paper's headline
// numbers; `cmd/darco-bench` prints the full per-benchmark rows.

import (
	"context"
	"testing"
	"time"

	darco "darco"

	"darco/internal/controller"
	"darco/internal/experiments"
	"darco/internal/guest"
	"darco/internal/hostvm"
	"darco/internal/timing"
	"darco/internal/tol"
	"darco/internal/warmup"
	"darco/internal/workload"
	"darco/telemetry"
)

// benchRun executes im on a fresh Engine built from cfg.
func benchRun(b *testing.B, im *guest.Image, cfg darco.Config) *darco.Result {
	b.Helper()
	eng, err := darco.NewEngine(darco.WithConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run(context.Background(), im)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchScale keeps the full-suite benches tractable while preserving
// the figures' shapes (validated at scale 1.0 in EXPERIMENTS.md).
const benchScale = 0.5

func runSuitesB(b *testing.B, scale float64) []experiments.BenchResult {
	b.Helper()
	rs, err := experiments.RunSuites(scale, darco.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

func suiteMetric(b *testing.B, rs []experiments.BenchResult, suite string,
	f func(*experiments.BenchResult) float64, name string) {
	var sum float64
	var n int
	for i := range rs {
		if rs[i].Profile.Suite == suite {
			sum += f(&rs[i])
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), name)
	}
}

// BenchmarkTableSpeedFunctional measures the §VI-A guest/host emulation
// rates of the functional stack (paper: 3.4 guest MIPS, 20 host MIPS on
// a 2017 cluster core; absolute values are machine-dependent).
func BenchmarkTableSpeedFunctional(b *testing.B) {
	p, _ := workload.ByName("429.mcf")
	im, err := workload.CachedImage(p.Scale(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	var guestMIPS, hostMIPS float64
	for i := 0; i < b.N; i++ {
		res := benchRun(b, im, darco.DefaultConfig())
		guestMIPS = res.GuestMIPS
		hostMIPS = res.HostMIPS
	}
	b.ReportMetric(guestMIPS, "guest-MIPS")
	b.ReportMetric(hostMIPS, "host-MIPS")
}

// BenchmarkTableSpeedFunctionalTelemetry is BenchmarkTableSpeedFunctional
// with a default-interval telemetry windower attached — the retire
// subscription every darco-served job's sessions carry. The ns/op ratio
// between the two is what default job telemetry costs.
func BenchmarkTableSpeedFunctionalTelemetry(b *testing.B) {
	p, _ := workload.ByName("429.mcf")
	im, err := workload.CachedImage(p.Scale(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := darco.NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	var guestMIPS, hostMIPS float64
	var windows int
	for i := 0; i < b.N; i++ {
		sess, err := eng.NewSession(im)
		if err != nil {
			b.Fatal(err)
		}
		windows = 0
		wd := telemetry.NewWindower(telemetry.DefaultInterval, func(telemetry.Window) { windows++ })
		wd.Attach(sess)
		res, err := sess.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		wd.Flush()
		guestMIPS = res.GuestMIPS
		hostMIPS = res.HostMIPS
	}
	b.ReportMetric(guestMIPS, "guest-MIPS")
	b.ReportMetric(hostMIPS, "host-MIPS")
	b.ReportMetric(float64(windows), "windows")
}

// BenchmarkTableSpeedTiming measures the same rates with the timing
// simulator attached (paper: 370 guest KIPS, 2 host MIPS).
func BenchmarkTableSpeedTiming(b *testing.B) {
	p, _ := workload.ByName("429.mcf")
	im, err := workload.CachedImage(p.Scale(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	var guestMIPS, hostMIPS float64
	for i := 0; i < b.N; i++ {
		res := benchRun(b, im, darco.TimingConfig())
		guestMIPS = res.GuestMIPS
		hostMIPS = res.HostMIPS
	}
	b.ReportMetric(guestMIPS*1000, "guest-KIPS")
	b.ReportMetric(hostMIPS, "host-MIPS")
}

// BenchmarkTimingSplit attributes a timing-mode run on 429.mcf and
// 433.milc at scale 0.25, each round run by the controller three ways
// back to back: functional, with a no-op VM.Retire, and with a default
// timing core's Consume on it. It reports guest MIPS for each way, the
// hook's and Consume's added milliseconds per round, and Consume's
// nanoseconds per retired host instruction.
func BenchmarkTimingSplit(b *testing.B) {
	var ims []*guest.Image
	for _, name := range []string{"429.mcf", "433.milc"} {
		p, _ := workload.ByName(name)
		im, err := workload.CachedImage(p.Scale(0.25))
		if err != nil {
			b.Fatal(err)
		}
		ims = append(ims, im)
	}
	ways := []func() func(hostvm.RetireEvent){
		func() func(hostvm.RetireEvent) { return nil },
		func() func(hostvm.RetireEvent) { return func(hostvm.RetireEvent) {} },
		func() func(hostvm.RetireEvent) { return timing.New(timing.DefaultConfig()).Consume },
	}
	var wall [3]time.Duration
	var guestInsns, events uint64
	for i := 0; i < b.N; i++ {
		for w, retire := range ways {
			for _, im := range ims {
				ctl, err := controller.New(im, controller.Config{
					TOL:                 tol.DefaultConfig(),
					ValidateEveryNSyncs: darco.DefaultConfig().ValidateEveryNSyncs,
					CheckInterval:       darco.DefaultCheckInterval,
				})
				if err != nil {
					b.Fatal(err)
				}
				ctl.CoD.VM.Retire = retire()
				t0 := time.Now()
				if err := ctl.RunContext(context.Background(), 0); err != nil {
					b.Fatal(err)
				}
				wall[w] += time.Since(t0)
				if w == 0 {
					guestInsns += ctl.CoD.Stats.GuestInsns()
					events += ctl.CoD.VM.AppInsns
				}
			}
		}
	}
	rounds := float64(b.N)
	for w, name := range []string{"functional", "hook", "timing"} {
		b.ReportMetric(float64(guestInsns)/wall[w].Seconds()/1e6, "guest-MIPS-"+name)
	}
	b.ReportMetric(float64(wall[1]-wall[0])/1e6/rounds, "hook-ms/round")
	b.ReportMetric(float64(wall[2]-wall[1])/1e6/rounds, "consume-ms/round")
	b.ReportMetric(float64(wall[2]-wall[1])/float64(events), "consume-ns/event")
}

// BenchmarkFig4ModeDistribution regenerates Fig. 4: per-suite average
// dynamic guest instruction share in SBM (paper: 88 / 96 / 75 %).
func BenchmarkFig4ModeDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := runSuitesB(b, benchScale)
		sbm := func(r *experiments.BenchResult) float64 {
			_, _, s := r.Res.ModeShares()
			return 100 * s
		}
		suiteMetric(b, rs, workload.SuiteINT, sbm, "SBM%-INT")
		suiteMetric(b, rs, workload.SuiteFP, sbm, "SBM%-FP")
		suiteMetric(b, rs, workload.SuitePhysics, sbm, "SBM%-Phys")
	}
}

// BenchmarkFig5EmulationCost regenerates Fig. 5: host instructions per
// guest instruction in SBM (paper: 4 / 2.6 / 3.1).
func BenchmarkFig5EmulationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := runSuitesB(b, benchScale)
		cost := func(r *experiments.BenchResult) float64 { return r.Res.EmulationCostSBM() }
		suiteMetric(b, rs, workload.SuiteINT, cost, "cost-INT")
		suiteMetric(b, rs, workload.SuiteFP, cost, "cost-FP")
		suiteMetric(b, rs, workload.SuitePhysics, cost, "cost-Phys")
	}
}

// BenchmarkFig6TOLOverhead regenerates Fig. 6: TOL share of the host
// dynamic instruction stream (paper: 16 / 13 / 41 %).
func BenchmarkFig6TOLOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := runSuitesB(b, benchScale)
		ov := func(r *experiments.BenchResult) float64 { return 100 * r.Res.TOLOverheadFrac() }
		suiteMetric(b, rs, workload.SuiteINT, ov, "TOL%-INT")
		suiteMetric(b, rs, workload.SuiteFP, ov, "TOL%-FP")
		suiteMetric(b, rs, workload.SuitePhysics, ov, "TOL%-Phys")
	}
}

// BenchmarkFig7OverheadBreakdown regenerates Fig. 7: the interpreter /
// BB-translator / SB-translator split of TOL overhead (averaged over all
// 31 benchmarks; remaining categories in cmd/darco-bench -exp fig7).
func BenchmarkFig7OverheadBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := runSuitesB(b, benchScale)
		fig := experiments.Fig7(rs)
		// Aggregate across the three suite-average rows.
		var interp, bbt, sbt float64
		for _, r := range fig.Avgs {
			interp += r.Values[0]
			bbt += r.Values[1]
			sbt += r.Values[2]
		}
		n := float64(len(fig.Avgs))
		b.ReportMetric(interp/n, "interp%")
		b.ReportMetric(bbt/n, "bbtrans%")
		b.ReportMetric(sbt/n, "sbtrans%")
	}
}

// BenchmarkCaseStudyWarmup regenerates the §VI-E case study: the warm-up
// methodology's simulation-cost reduction and error (paper: 65x at 0.75%
// on full SPEC-length runs; shorter synthetic runs amortise less).
func BenchmarkCaseStudyWarmup(b *testing.B) {
	p, _ := workload.ByName("462.libquantum")
	im, err := workload.CachedImage(p.Scale(0.4))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		st, err := warmup.RunStudy(im, warmup.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(st.Chosen.Reduction, "cost-reduction-x")
		b.ReportMetric(st.Chosen.ErrorPct, "error-%")
	}
}

// --- Ablations of the design choices DESIGN.md calls out ---

// ablationRun reports (host app instructions, TOL overhead) for 429.mcf
// under a config mutation.
func ablationRun(b *testing.B, mutate func(*darco.Config)) (app, overhead uint64) {
	b.Helper()
	p, _ := workload.ByName("429.mcf")
	im, err := workload.CachedImage(p.Scale(0.25))
	if err != nil {
		b.Fatal(err)
	}
	cfg := darco.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	res := benchRun(b, im, cfg)
	return res.HostAppInsns, res.Overhead.Total()
}

// BenchmarkAblationEagerFlags quantifies lazy flag materialization: the
// extra host instructions when every flag is computed eagerly.
func BenchmarkAblationEagerFlags(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, _ := ablationRun(b, nil)
		eager, _ := ablationRun(b, func(c *darco.Config) { c.TOL.EagerFlags = true })
		b.ReportMetric(float64(eager)/float64(base), "app-insn-ratio")
	}
}

// BenchmarkAblationNoAsserts compares single-exit (asserts + rollback)
// superblocks against multi-exit superblocks.
func BenchmarkAblationNoAsserts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, _ := ablationRun(b, nil)
		multi, _ := ablationRun(b, func(c *darco.Config) { c.TOL.SB.NoAsserts = true })
		b.ReportMetric(float64(multi)/float64(base), "app-insn-ratio")
	}
}

// BenchmarkAblationNoChaining measures the dispatch overhead chaining
// and the IBTC remove.
func BenchmarkAblationNoChaining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, base := ablationRun(b, nil)
		_, noChain := ablationRun(b, func(c *darco.Config) { c.TOL.DisableChaining = true })
		b.ReportMetric(float64(noChain)/float64(base), "overhead-ratio")
	}
}

// BenchmarkAblationNoUnroll disables single-BB loop unrolling.
func BenchmarkAblationNoUnroll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, _ := ablationRun(b, nil)
		noUnroll, _ := ablationRun(b, func(c *darco.Config) { c.TOL.SB.UnrollFactor = 1 })
		b.ReportMetric(float64(noUnroll)/float64(base), "app-insn-ratio")
	}
}

// BenchmarkAblationNoMemSpec disables speculative memory reordering.
func BenchmarkAblationNoMemSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, _ := ablationRun(b, nil)
		noSpec, _ := ablationRun(b, func(c *darco.Config) { c.TOL.SB.MaxSpecLoads = 0 })
		b.ReportMetric(float64(noSpec)/float64(base), "app-insn-ratio")
	}
}

// BenchmarkAblationThresholds sweeps the superblock promotion threshold
// (the startup-delay vs optimization-coverage trade-off of §III).
func BenchmarkAblationThresholds(b *testing.B) {
	for _, thresh := range []uint64{50, 300, 2000} {
		thresh := thresh
		b.Run(benchName(thresh), func(b *testing.B) {
			p, _ := workload.ByName("429.mcf")
			im, err := workload.CachedImage(p.Scale(0.25))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				cfg := darco.DefaultConfig()
				cfg.TOL.SBThreshold = thresh
				res := benchRun(b, im, cfg)
				_, _, sbm := res.ModeShares()
				b.ReportMetric(100*sbm, "SBM%")
				b.ReportMetric(100*res.TOLOverheadFrac(), "TOL%")
			}
		})
	}
}

func benchName(t uint64) string {
	switch t {
	case 50:
		return "sb50"
	case 300:
		return "sb300"
	default:
		return "sb2000"
	}
}
