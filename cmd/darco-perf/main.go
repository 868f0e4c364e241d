// Command darco-perf is the repository's performance referee: it
// answers "did this change make DARCO faster or slower?" with
// same-machine evidence instead of cross-machine wall-clock folklore.
//
// Usage:
//
//	darco-perf ab -baseline <ref> [-candidate <ref|dir>] -workload <w> [-pairs 10] [-seed 0] [-trace 0|1]
//	darco-perf gate -baseline BENCH_14.json [-candidate cand.json] [-v]
//	darco-perf layout <binary> [<binary>]
//
// ab is the one way a speed comparison is run. It checks the baseline
// ref out into a temporary clone (the candidate too, when it is a ref
// rather than a directory; by default it is the working tree) and runs
// each tree's own benchmark command from BENCHMARK.json, with the
// workload, seed, trace pass and BENCHMARK.json's run_seconds, in
// alternated pairs whose order flips every pair. It parses each run's
// one-line JSON result and prints the run record as markdown: per
// metric the quartiles of each side, the change of the median and the
// pairs won; operations attempted and failed; the metrics that held one
// value in every baseline run and moved in a candidate run; the layout
// of the two benchmark binaries; and one grep-stable
// "verdict <metric>: ..." line per metric (perf.Compare has the rule).
// A run that exits non-zero or prints no JSON result fails the
// comparison.
//
// gate compares a candidate BENCH snapshot (or a fresh in-process
// measurement) against a committed baseline snapshot: deterministic
// engine counters and Stats-derived figure metrics must match exactly,
// allocs/op within 1 %. Wall time is not compared — across machines raw
// ns/op is drift, not evidence. Exits 1 on failure.
//
// layout prints, from `go tool nm`, the address modulo 64 of the
// simulator's inner loops (perf.HotFunctions) in one binary, or in two
// with the functions whose alignment differs flagged: a few per cent on
// a benchmark row that should not have moved is then named as a layout
// effect, or not, instead of argued about.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
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
  ab      alternated A/B runs of the repository benchmark in two trees
  gate    deterministic regression gate against a committed BENCH snapshot
  layout  hot-function addresses modulo 64 in one binary, or two compared

run "darco-perf <command> -h" for the command's flags`)
}

// errGateFailed distinguishes "the gate said no" (exit 1, report
// already printed) from operational errors.
var errGateFailed = fmt.Errorf("gate failed")

// abRun is one comparison: what ab names the two trees and what it asks
// the benchmark for.
type abRun struct {
	baseLabel, candLabel string
	workload             string
	pairs                int
	seed                 uint64
	trace                int
}

func cmdAB(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ab", flag.ExitOnError)
	var (
		baseline  = fs.String("baseline", "", "git ref of the baseline (required)")
		candidate = fs.String("candidate", ".", "candidate: a directory holding BENCHMARK.json, or a git ref")
		workload  = fs.String("workload", "", "benchmark workload (required)")
		pairs     = fs.Int("pairs", 10, "alternated baseline/candidate pairs")
		seed      = fs.Uint64("seed", 0, "benchmark input seed")
		trace     = fs.Int("trace", 0, "benchmark pass: 0 = end-to-end metrics, 1 = per-layer metrics")
	)
	fs.Parse(args)
	if *baseline == "" || *workload == "" {
		return fmt.Errorf("ab: -baseline and -workload are required")
	}
	if *pairs < 1 {
		return fmt.Errorf("ab: -pairs must be at least 1")
	}
	baseDir, cleanup, err := checkout(ctx, *baseline)
	if err != nil {
		return err
	}
	defer cleanup()
	candDir := *candidate
	if st, statErr := os.Stat(candDir); statErr != nil || !st.IsDir() {
		candDir, cleanup, err = checkout(ctx, *candidate)
		if err != nil {
			return err
		}
		defer cleanup()
	}
	run := abRun{baseLabel: *baseline, candLabel: *candidate,
		workload: *workload, pairs: *pairs, seed: *seed, trace: *trace}
	_, err = runAB(ctx, os.Stdout, baseDir, candDir, run)
	return err
}

// checkout clones the repository around the working directory into a
// temporary directory, sharing its objects, and checks ref out there. It
// returns the directory and the func that removes it; nothing is left in
// the repository itself.
func checkout(ctx context.Context, ref string) (string, func(), error) {
	git := func(args ...string) (string, error) {
		cmd := exec.CommandContext(ctx, "git", args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	top, err := git("rev-parse", "--show-toplevel")
	if err != nil {
		return "", nil, fmt.Errorf("finding the repository: %w", err)
	}
	sha, err := git("rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		return "", nil, fmt.Errorf("resolving %q: %w", ref, err)
	}
	dir, err := os.MkdirTemp("", "darco-perf-ab-*")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	if _, err := git("clone", "--quiet", "--shared", "--no-checkout", top, dir); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("cloning for %q: %w", ref, err)
	}
	if _, err := git("-C", dir, "checkout", "--quiet", "--detach", sha); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("checking out %q: %w", ref, err)
	}
	return dir, cleanup, nil
}

// benchConfig is what ab reads of a tree's BENCHMARK.json.
type benchConfig struct {
	Command    []string      `json:"command"`
	RunSeconds float64       `json:"run_seconds"`
	EndToEnd   []perf.Metric `json:"end_to_end"`
	PerLayer   []perf.Metric `json:"per_layer"`
}

func readBenchConfig(dir string) (*benchConfig, error) {
	path := filepath.Join(dir, "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c benchConfig
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Command) == 0 {
		return nil, fmt.Errorf("%s: no command", path)
	}
	return &c, nil
}

// benchBinary is where benchmark/run.sh leaves the binary it built.
const benchBinary = ".bench_build/darco-benchmark"

// runAB runs the comparison between two trees and writes its record to
// w. Each tree runs its own command; the run length and the metrics are
// the baseline's, the contract a change is judged by.
func runAB(ctx context.Context, w io.Writer, baseDir, candDir string, o abRun) (*perf.ABResult, error) {
	baseCfg, err := readBenchConfig(baseDir)
	if err != nil {
		return nil, err
	}
	candCfg, err := readBenchConfig(candDir)
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(baseCfg.RunSeconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace)}
	baseArgv := slices.Concat(baseCfg.Command, args)
	base, cand, err := perf.RunAB(ctx,
		benchClosure("baseline", baseDir, baseArgv),
		benchClosure("candidate", candDir, slices.Concat(candCfg.Command, args)), o.pairs)
	if err != nil {
		return nil, err
	}
	res := perf.Compare(base, cand, slices.Concat(baseCfg.EndToEnd, baseCfg.PerLayer))

	fmt.Fprintf(w, "## darco-perf ab: %s, seed %d, trace %d\n\n", o.workload, o.seed, o.trace)
	fmt.Fprintf(w, "Baseline `%s`, candidate `%s`: %d pairs of `%s` in each tree, alternated, the order flipped every pair. Host: %s/%s, %d CPUs, %s.\n\n",
		o.baseLabel, o.candLabel, o.pairs, strings.Join(baseArgv, " "),
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), cpuModel())
	fmt.Fprint(w, res.Format())
	report, err := layout(ctx, []string{"baseline", "candidate"},
		[]string{filepath.Join(baseDir, benchBinary), filepath.Join(candDir, benchBinary)})
	if err != nil {
		report = fmt.Sprintf("layout unavailable: %v\n", err)
	}
	fmt.Fprintf(w, "\n### Layout\n\n```\n%s```\n\n### Verdicts\n\n```\n%s```\n", report, res.FormatVerdicts())
	return res, nil
}

// benchClosure runs argv in dir once per call and parses its result
// line; it reports each run's wall time on stderr.
func benchClosure(side, dir string, argv []string) perf.Closure {
	n := 0
	return func(ctx context.Context) (perf.Sample, error) {
		n++
		start := time.Now()
		cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return perf.Sample{}, fmt.Errorf("%s: %w", strings.Join(argv, " "), err)
		}
		s, err := parseResult(out)
		if err != nil {
			return perf.Sample{}, fmt.Errorf("%s: %w", strings.Join(argv, " "), err)
		}
		fmt.Fprintf(os.Stderr, "ab: %s run %d done in %s\n", side, n, time.Since(start).Round(100*time.Millisecond))
		return s, nil
	}
}

// parseResult reads the benchmark's result: the last line of its
// output, one JSON object.
func parseResult(out []byte) (perf.Sample, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		return perf.Sample{}, fmt.Errorf("no JSON result line (last line %q)", lines[len(lines)-1])
	}
	s := perf.Sample{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for name, m := range res.Metrics {
		s.Metrics[name] = m.Value
	}
	return s, nil
}

// cpuModel names the host's processor as /proc/cpuinfo does; the file
// is absent off Linux, and the name is then unknown.
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

func cmdGate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	var (
		baseline  = fs.String("baseline", "", "baseline BENCH_<n>.json (required)")
		candidate = fs.String("candidate", "", "candidate BENCH_<n>.json; empty = measure this tree in-process at the baseline's scale")
		verbose   = fs.Bool("v", false, "print every check, not just failures and noted ones")
	)
	fs.Parse(args)
	if *baseline == "" {
		return fmt.Errorf("gate: -baseline is required (the committed BENCH_<n>.json to gate against)")
	}
	base, err := perf.ReadSnapshot(*baseline)
	if err != nil {
		return err
	}
	var cand *perf.Snapshot
	if *candidate != "" {
		if cand, err = perf.ReadSnapshot(*candidate); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(os.Stderr, "measuring candidate in-process at scale %.2f (baseline %s)...\n", base.Scale, filepath.Base(*baseline))
		start := time.Now()
		if cand, err = experiments.CollectBenchSnapshot(ctx, base.Scale); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "measured in %s\n", time.Since(start).Round(time.Millisecond))
	}
	r := perf.Gate(base, cand)
	fmt.Print(r.Format(*verbose))
	if !r.Pass() {
		return errGateFailed
	}
	return nil
}

func cmdLayout(ctx context.Context, bins []string) error {
	if len(bins) < 1 || len(bins) > 2 {
		return fmt.Errorf("layout: want one or two binaries built from this module")
	}
	report, err := layout(ctx, bins, bins)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

// layout reads the hot functions' addresses in each binary with
// `go tool nm` and renders them under names, with a closing line when
// their alignment differs between two binaries.
func layout(ctx context.Context, names, bins []string) (string, error) {
	addrs := make([]map[string]uint64, len(bins))
	for i, bin := range bins {
		out, err := exec.CommandContext(ctx, "go", "tool", "nm", bin).Output()
		if err != nil {
			return "", fmt.Errorf("go tool nm %s: %w", bin, err)
		}
		addrs[i] = perf.ParseNM(string(out))
	}
	report, differs := perf.FormatLayout(names, addrs)
	if differs {
		report += "layout: hot-function alignment differs between the binaries\n"
	}
	return report, nil
}
