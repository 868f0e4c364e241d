// Command darco-bench regenerates the paper's evaluation (§VI): the
// emulation/simulation speed table, Figs. 4–7, and the warm-up case
// study. The 31-benchmark roster runs as a parallel campaign on a
// bounded worker pool; each experiment prints the same rows/series the
// paper reports, and -report prints the campaign's per-scenario timing.
//
// Usage:
//
//	darco-bench -exp all
//	darco-bench -exp fig4 -scale 1.0 -par 8
//	darco-bench -exp speed -obs
//	darco-bench -exp warmup -bench 429.mcf
//	darco-bench -json . -scale 0.5
//	darco-bench -exp fig4 -csv out.csv -html dash.html
//
// -json writes a BENCH_<n>.json perf-trajectory snapshot (schema 2:
// ns/op, allocs/op, the headline metrics, and the engine
// profiling-counter snapshot for the Table-Speed and Fig. 4–7 benches;
// the figure rows record cost_shared instead of duplicating the one
// measured campaign cost) into the given directory, numbered after the
// highest existing snapshot. Committing one per perf-relevant PR gives
// the repository the floor `darco-perf gate` checks against.
//
// -csv, -ndjson and -html export the suite campaign through
// darco/export: -csv and -ndjson stream one row per benchmark as
// workers finish (scenario order, deterministic counters plus
// wall-clock columns), -html writes the self-contained static
// dashboard with the paper's Fig. 4–7 views.
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"slices"
	"time"

	darco "darco"
	"darco/export"
	"darco/internal/experiments"
	"darco/internal/warmup"
	"darco/internal/workload"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: speed|fig4|fig5|fig6|fig7|warmup|startup|all")
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		benchName  = flag.String("bench", "429.mcf", "benchmark for speed/warmup experiments")
		par        = flag.Int("par", 0, "campaign worker-pool width (0 = GOMAXPROCS)")
		scenarioTO = flag.Duration("scenario-timeout", 0, "per-benchmark timeout (0 = none)")
		report     = flag.Bool("report", false, "print the campaign report (per-benchmark wall times)")
		obsOn      = flag.Bool("obs", false, "attach profiling counters to the speed table and print cache columns")
		jsonDir    = flag.String("json", "", "write a BENCH_<n>.json perf snapshot into this directory and exit")
		csvPath    = flag.String("csv", "", "stream the suite campaign as CSV to this file")
		ndjsonPath = flag.String("ndjson", "", "stream the suite campaign as NDJSON rows to this file")
		htmlPath   = flag.String("html", "", "write the suite campaign's static HTML dashboard to this file")
		version    = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("darco-bench", darco.Version)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *jsonDir != "" {
		fmt.Fprintf(os.Stderr, "collecting perf snapshot at scale %.2f...\n", *scale)
		snap, err := experiments.CollectBenchSnapshot(ctx, *scale)
		if err != nil {
			fatalf("snapshot: %v", err)
		}
		path, err := snap.Write(*jsonDir)
		if err != nil {
			fatalf("snapshot: %v", err)
		}
		for _, name := range snap.BenchNames() {
			e := snap.Benches[name]
			if e.SharesCost() {
				fmt.Printf("%-26s %25s", name, "cost shared w/ "+e.CostShared)
			} else {
				fmt.Printf("%-26s %12.0f ns/op %10.0f allocs/op", name, e.NsPerOp, e.AllocsPerOp)
			}
			if e.Counters != nil {
				fmt.Printf("  decode-hit %.2f%%  block-hit %.2f%%",
					100*e.Counters.DecodeHitRate(), 100*e.Counters.BlockHitRate())
			}
			for _, k := range slices.Sorted(maps.Keys(e.Metrics)) {
				fmt.Printf("  %s=%.2f", k, e.Metrics[k])
			}
			fmt.Println()
		}
		fmt.Printf("wrote %s\n", path)
		return
	}

	needFigs := false
	switch *exp {
	case "fig4", "fig5", "fig6", "fig7", "all":
		needFigs = true
	}
	needSuites := needFigs || *csvPath != "" || *ndjsonPath != "" || *htmlPath != ""

	var rs []experiments.BenchResult
	if needSuites {
		fmt.Fprintf(os.Stderr, "running %d benchmarks at scale %.2f...\n", len(workload.Suites()), *scale)
		copts := []darco.CampaignOption{darco.WithParallelism(*par)}
		if *scenarioTO > 0 {
			copts = append(copts, darco.WithScenarioTimeout(*scenarioTO))
		}
		// -csv streams: each row is written as its scenario finishes
		// (in scenario order), not after the whole campaign.
		var csvFile *os.File
		var csvStream *export.CSVStream
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fatalf("csv: %v", err)
			}
			csvFile = f
			stream, err := export.NewCSVStream(f, len(workload.Suites()), export.WithWallTimes())
			if err != nil {
				fatalf("csv: %v", err)
			}
			csvStream = stream
			copts = append(copts, darco.WithScenarioDone(stream.Done))
		}
		// -ndjson streams the same way; both sinks can be active at
		// once (WithScenarioDone hooks compose).
		var ndjsonFile *os.File
		var ndjsonStream *export.NDJSONStream
		if *ndjsonPath != "" {
			f, err := os.Create(*ndjsonPath)
			if err != nil {
				fatalf("ndjson: %v", err)
			}
			ndjsonFile = f
			ndjsonStream = export.NewNDJSONStream(f, len(workload.Suites()), export.WithWallTimes())
			copts = append(copts, darco.WithScenarioDone(ndjsonStream.Done))
		}
		rep, err := experiments.SuiteCampaign(ctx, *scale, darco.DefaultConfig(), copts...)
		if err != nil {
			fatalf("suites: %v", err)
		}
		fmt.Fprintf(os.Stderr, "campaign: %s wall on %d workers (%s serial-equivalent)\n",
			rep.Wall.Round(time.Millisecond), rep.Parallelism, rep.SerialWall().Round(time.Millisecond))
		if csvStream != nil {
			if err := csvStream.Close(); err != nil {
				fatalf("csv: %v", err)
			}
			if err := csvFile.Close(); err != nil {
				fatalf("csv: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
		}
		if ndjsonStream != nil {
			if err := ndjsonStream.Close(); err != nil {
				fatalf("ndjson: %v", err)
			}
			if err := ndjsonFile.Close(); err != nil {
				fatalf("ndjson: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *ndjsonPath)
		}
		if *htmlPath != "" {
			f, err := os.Create(*htmlPath)
			if err != nil {
				fatalf("html: %v", err)
			}
			if err := export.WriteHTML(f, rep, export.WithWallTimes()); err != nil {
				fatalf("html: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("html: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *htmlPath)
		}
		if *report {
			fmt.Print(rep.Format(), "\n")
		}
		// Only the figure builders need the per-benchmark rows, and
		// only they treat a scenario error as fatal: an export-only run
		// records failed scenarios as error rows (the CSV status
		// column) and still succeeds.
		if needFigs {
			rs, err = experiments.BenchResults(rep)
			if err != nil {
				fatalf("suites: %v", err)
			}
		}
	}

	show := func(name string) bool { return *exp == name || *exp == "all" }

	if show("speed") {
		p, ok := workload.ByName(*benchName)
		if !ok {
			fatalf("unknown workload %q", *benchName)
		}
		table := experiments.TableSpeed
		if *obsOn {
			table = experiments.TableSpeedObs
		}
		rows, err := table(ctx, p, *scale)
		if err != nil {
			fatalf("speed: %v", err)
		}
		fmt.Println("Table (§VI-A): DARCO speed")
		fmt.Printf("%-24s%14s%14s%12s", "configuration", "guest MIPS", "host MIPS", "wall")
		if *obsOn {
			fmt.Printf("%12s%12s%10s", "decode-hit%", "block-hit%", "flushes")
		}
		fmt.Println()
		for _, r := range rows {
			fmt.Printf("%-24s%14.2f%14.2f%12s", r.Config, r.GuestMIPS, r.HostMIPS, r.Wall.Round(1e6))
			if r.Obs != nil {
				fmt.Printf("%12.2f%12.2f%10d",
					100*r.Obs.DecodeHitRate(), 100*r.Obs.BlockHitRate(), r.Obs.CodeFlushes)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if show("fig4") {
		fmt.Print(experiments.Fig4(rs).Format(), "\n")
	}
	if show("fig5") {
		fmt.Print(experiments.Fig5(rs).Format(), "\n")
	}
	if show("fig6") {
		fmt.Print(experiments.Fig6(rs).Format(), "\n")
	}
	if show("fig7") {
		fmt.Print(experiments.Fig7(rs).Format(), "\n")
	}
	if show("startup") {
		p, ok := workload.ByName(*benchName)
		if !ok {
			fatalf("unknown workload %q", *benchName)
		}
		rows, err := experiments.StartupDelay(ctx, p, 100_000, *scale)
		if err != nil {
			fatalf("startup: %v", err)
		}
		fmt.Println("Startup delay (§III): host cycles to retire the first 100k guest instructions")
		fmt.Printf("%14s%14s%12s%12s%10s\n", "bb-threshold", "sb-threshold", "cycles", "CPGI", "IM %")
		for _, r := range rows {
			fmt.Printf("%14d%14d%12d%12.2f%10.1f\n", r.BBThreshold, r.SBThreshold, r.Cycles, r.CPGI, 100*r.IMShare)
		}
		fmt.Println()
	}
	if show("warmup") {
		p, ok := workload.ByName(*benchName)
		if !ok {
			fatalf("unknown workload %q", *benchName)
		}
		im, err := workload.CachedImage(p.Scale(*scale))
		if err != nil {
			fatalf("warmup: %v", err)
		}
		st, err := warmup.RunStudyContext(ctx, im, warmup.DefaultConfig())
		if err != nil {
			fatalf("warmup: %v", err)
		}
		fmt.Printf("Case study (§VI-E): warm-up methodology on %s (%d guest insns)\n", p.Name, st.TotalGuest)
		fmt.Printf("full detailed simulation: CPGI %.3f, cost %.0f insns\n", st.FullCPGI, st.FullCost)
		fmt.Printf("%8s%10s%10s%10s%12s%12s\n", "scale", "warm-len", "err %", "reduction", "similarity", "CPGI")
		for _, c := range st.Candidates {
			fmt.Printf("%8d%10d%10.2f%10.1fx%12.4f%12.3f\n",
				c.Scale, c.WarmLen, c.ErrorPct, c.Reduction, c.Similarity, c.CPGI)
		}
		fmt.Printf("heuristic pick: scale %d, warm-up %d -> %.2f%% error at %.1fx cost reduction\n",
			st.Chosen.Scale, st.Chosen.WarmLen, st.Chosen.ErrorPct, st.Chosen.Reduction)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "darco-bench: "+format+"\n", args...)
	os.Exit(1)
}
