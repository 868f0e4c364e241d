// Command darco-perf is the repository's performance-observability
// tool: it answers "did this change make DARCO slower?" with evidence
// instead of cross-machine wall-clock folklore.
//
// Usage:
//
//	darco-perf ab                        # paired self-vs-self (must be inconclusive)
//	darco-perf ab -quick                 # CI-sized self-test
//	darco-perf ab -inject-slowdown 30ms  # fixture: must report "slower"
//	darco-perf ab -baseline v1.2.0       # paired A/B vs a git ref (worktree build)
//	darco-perf ab -baseline BENCH_4.json # snapshot baseline: deterministic gate compare
//	darco-perf gate -baseline BENCH_4.json [-candidate cand.json]
//	darco-perf trend -dir . -o perf-trend.html
//	darco-perf layout <binary> [<binary>] # hot-function alignment, one binary or parent vs change
//
// ab runs the paired interleaved harness: baseline and candidate
// repetitions alternate on the same machine (B,C / C,B / ...), so slow
// machine drift cancels out of the paired differences; the verdict —
// faster / slower / inconclusive — comes from a two-sided sign test
// plus a minimum-effect guard. A git-ref baseline is checked out into
// a temporary worktree and both trees run `go test -bench` alternately;
// with no -baseline the candidate is the tree itself (self-vs-self),
// which must land inconclusive on a healthy machine.
//
// gate compares a candidate BENCH snapshot (or a fresh in-process
// measurement) against a committed baseline snapshot: deterministic
// engine counters and Stats-derived figure metrics must match exactly,
// allocs/op within a small tolerance, while wall time is advisory —
// across machines raw ns/op is drift, not evidence. Exits 1 on failure.
//
// trend renders the committed BENCH_<n>.json history as a static HTML
// dashboard: per-bench allocation series, counter hit-rate series, and
// gate-verdict annotations.
//
// layout prints, from `go tool nm`, the address modulo 64 of the
// simulator's inner loops (perf.HotFunctions) in one binary, or in two
// with the functions whose alignment differs flagged: a few per cent on
// a benchmark row that should not have moved is then named as a layout
// effect, or not, instead of argued about.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	darco "darco"
	"darco/internal/experiments"
	"darco/perf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch os.Args[1] {
	case "ab":
		err = cmdAB(ctx, os.Args[2:])
	case "gate":
		err = cmdGate(ctx, os.Args[2:])
	case "trend":
		err = cmdTrend(os.Args[2:])
	case "layout":
		err = cmdLayout(ctx, os.Args[2:])
	case "-version", "version":
		fmt.Println("darco-perf", darco.Version)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "darco-perf: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: darco-perf <command> [flags]

commands:
  ab      paired interleaved A/B comparison (self, git ref, or snapshot baseline)
  gate    deterministic regression gate against a committed BENCH snapshot
  trend   render the BENCH_<n>.json history as a static HTML dashboard
  layout  hot-function addresses modulo 64 in one binary, or two compared

run "darco-perf <command> -h" for the command's flags`)
}

// errGateFailed distinguishes "the gate said no" (exit 1, report
// already printed) from operational errors.
var errGateFailed = fmt.Errorf("gate failed")

func cmdAB(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ab", flag.ExitOnError)
	var (
		baseline  = fs.String("baseline", "", "baseline: a git ref (paired worktree A/B) or a BENCH_<n>.json (gate compare); empty = self-vs-self")
		candidate = fs.String("candidate", ".", "candidate tree (git-ref mode); \".\" is the working tree")
		benchName = fs.String("bench", "TableSpeedFunctional", "benchmark to pair in git-ref mode (without the Benchmark prefix)")
		scale     = fs.Float64("scale", 0.5, "workload scale for in-process repetitions")
		reps      = fs.Int("reps", 10, "measured interleaved pairs")
		warmup    = fs.Int("warmup", 1, "unmeasured warmup pairs")
		alpha     = fs.Float64("alpha", 0.05, "sign-test significance level")
		minEffect = fs.Float64("min-effect", 0.02, "minimum |median ratio - 1| to call a verdict")
		quick     = fs.Bool("quick", false, "CI-sized self-test: scale 0.1, 7 reps, 5% effect floor")
		slowdown  = fs.Duration("inject-slowdown", 0, "inject a sleep into every candidate repetition (harness self-test fixture)")
	)
	fs.Parse(args)
	if *quick {
		// 7 reps keeps a clean sweep significant (the sign test needs 6)
		// with one repetition of slack; the 5% effect floor keeps tiny
		// scheduling ripples from ever crossing the verdict line in CI.
		*scale, *reps, *minEffect = 0.1, 7, 0.05
	}
	opt := perf.ABOptions{Warmup: *warmup, Reps: *reps, Alpha: *alpha, MinEffect: *minEffect}

	// Snapshot baseline: a BENCH file is data, not runnable code, so a
	// paired run is impossible — fall through to the deterministic gate
	// comparison, which is the honest subset.
	if strings.HasSuffix(*baseline, ".json") {
		fmt.Fprintln(os.Stderr, "baseline is a snapshot: paired A/B needs runnable code; comparing deterministic signals instead (wall advisory)")
		return gateAgainst(ctx, *baseline, "", perf.GatePolicy{}, false)
	}

	var base, cand perf.Closure
	var err error
	if *baseline == "" {
		// Self-vs-self: both arms are this tree. The only way the
		// verdict moves off inconclusive is the injected fixture.
		base, err = experiments.ABClosure(*scale, 0)
		if err != nil {
			return err
		}
		cand, err = experiments.ABClosure(*scale, *slowdown)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "paired self-vs-self at scale %.2f: %d warmup + %d measured pairs\n", *scale, opt.Warmup, opt.Reps)
	} else {
		baseDir, cleanup, err := worktreeFor(ctx, *baseline)
		if err != nil {
			return err
		}
		defer cleanup()
		candDir := *candidate
		if st, statErr := os.Stat(candDir); statErr != nil || !st.IsDir() {
			candDir, cleanup, err = worktreeFor(ctx, *candidate)
			if err != nil {
				return err
			}
			defer cleanup()
		}
		base = goBenchClosure(baseDir, *benchName)
		cand = goBenchClosure(candDir, *benchName)
		fmt.Fprintf(os.Stderr, "paired A/B: baseline %s vs candidate %s on Benchmark%s, %d warmup + %d measured pairs\n",
			*baseline, *candidate, *benchName, opt.Warmup, opt.Reps)
	}

	res, err := perf.RunAB(ctx, base, cand, opt)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

// worktreeFor checks a git ref out into a temporary worktree and
// returns its path plus a cleanup func.
func worktreeFor(ctx context.Context, ref string) (string, func(), error) {
	dir, err := os.MkdirTemp("", "darco-perf-ab-*")
	if err != nil {
		return "", nil, err
	}
	add := exec.CommandContext(ctx, "git", "worktree", "add", "--detach", dir, ref)
	add.Stderr = os.Stderr
	if err := add.Run(); err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("checking out baseline %q: %w", ref, err)
	}
	cleanup := func() {
		rm := exec.Command("git", "worktree", "remove", "--force", dir)
		if rm.Run() != nil {
			os.RemoveAll(dir)
		}
	}
	return dir, cleanup, nil
}

// goBenchClosure runs one unscaled repetition of a root benchmark in
// dir via `go test -benchtime 1x` and parses its cost. The first call
// pays the build; RunAB's warmup pairs absorb it.
func goBenchClosure(dir, bench string) perf.Closure {
	pattern := "^Benchmark" + regexp.QuoteMeta(bench) + "$"
	return func(ctx context.Context) (perf.Sample, error) {
		cmd := exec.CommandContext(ctx, "go", "test", "-run", "^$",
			"-bench", pattern, "-benchtime", "1x", "-count", "1", "-benchmem", ".")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			return perf.Sample{}, fmt.Errorf("go test in %s: %v\n%s", dir, err, out)
		}
		return parseGoBench(string(out), bench)
	}
}

// parseGoBench extracts ns/op, B/op and allocs/op from `go test -bench`
// output.
func parseGoBench(out, bench string) (perf.Sample, error) {
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "Benchmark"+bench) {
			continue
		}
		var s perf.Sample
		f := strings.Fields(line)
		for i := 1; i < len(f); i++ {
			v, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil {
				continue
			}
			switch f[i] {
			case "ns/op":
				s.Ns = v
			case "B/op":
				s.BytesPerOp = v
			case "allocs/op":
				s.AllocsPerOp = v
			}
		}
		if s.Ns > 0 {
			return s, nil
		}
	}
	return perf.Sample{}, fmt.Errorf("no Benchmark%s result in go test output:\n%s", bench, out)
}

func cmdGate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	var (
		baseline  = fs.String("baseline", "", "baseline BENCH_<n>.json (required)")
		candidate = fs.String("candidate", "", "candidate BENCH_<n>.json; empty = measure this tree in-process at the baseline's scale")
		wallRatio = fs.Float64("wall-ratio", 1.5, "advisory candidate/baseline wall ratio")
		allocTol  = fs.Float64("alloc-tol", 0.01, "fractional allocs/op growth tolerated")
		strict    = fs.Bool("strict-wall", false, "promote wall-ratio breaches to hard failures (same-machine gating)")
		verbose   = fs.Bool("v", false, "print every check, not just failures and advisories")
	)
	fs.Parse(args)
	if *baseline == "" {
		return fmt.Errorf("gate: -baseline is required (the committed BENCH_<n>.json to gate against)")
	}
	pol := perf.GatePolicy{WallRatio: *wallRatio, AllocTol: *allocTol, StrictWall: *strict}
	return gateAgainst(ctx, *baseline, *candidate, pol, *verbose)
}

// gateAgainst loads the baseline snapshot, obtains the candidate
// (reading a file or measuring in-process), and prints the gate report.
func gateAgainst(ctx context.Context, basePath, candPath string, pol perf.GatePolicy, verbose bool) error {
	base, err := perf.ReadSnapshot(basePath)
	if err != nil {
		return err
	}
	var cand *perf.Snapshot
	if candPath != "" {
		if cand, err = perf.ReadSnapshot(candPath); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(os.Stderr, "measuring candidate in-process at scale %.2f (baseline %s)...\n", base.Scale, filepath.Base(basePath))
		start := time.Now()
		if cand, err = experiments.CollectBenchSnapshot(ctx, base.Scale); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "measured in %s\n", time.Since(start).Round(time.Millisecond))
	}
	r := perf.Gate(base, cand, pol)
	fmt.Print(r.Format(verbose))
	if !r.Pass() {
		return errGateFailed
	}
	return nil
}

func cmdTrend(args []string) error {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	var (
		dir = fs.String("dir", ".", "directory holding the BENCH_<n>.json history")
		out = fs.String("o", "perf-trend.html", "output HTML path")
	)
	fs.Parse(args)
	hist, err := perf.LoadHistory(*dir)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := perf.WriteTrend(f, hist); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d snapshots)\n", *out, len(hist))
	return nil
}

func cmdLayout(ctx context.Context, bins []string) error {
	if len(bins) < 1 || len(bins) > 2 {
		return fmt.Errorf("layout: want one or two binaries built from this module")
	}
	addrs := make([]map[string]uint64, len(bins))
	for i, bin := range bins {
		out, err := exec.CommandContext(ctx, "go", "tool", "nm", bin).Output()
		if err != nil {
			return fmt.Errorf("go tool nm %s: %w", bin, err)
		}
		addrs[i] = perf.ParseNM(string(out))
	}
	report, differs := perf.FormatLayout(bins, addrs)
	fmt.Print(report)
	if differs {
		fmt.Println("layout: hot-function alignment differs between the binaries")
	}
	return nil
}
