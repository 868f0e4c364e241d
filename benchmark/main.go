// Command benchmark is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the engine and its service tiers sees, and
// a per-layer attribution taken from outside the engine by timing calls
// into each package's exported functions. BENCHMARK.json at the repository
// root declares the workloads and metrics; README.md explains them.
//
// One invocation runs one workload in one pass:
//
//	benchmark -workload fp-steady -seed 0 -seconds 18 -trace 0   # end-to-end metrics
//	benchmark -workload fp-steady -seed 0 -seconds 18 -trace 1   # per-layer metrics + trace file
//
// and prints every metric as "workload metric value unit", then one JSON
// result line. -workload all runs each workload in its own child process,
// so one workload's heap never taxes the next and peak RSS means
// something; -check-repeat runs the end-to-end set twice and fails when
// two runs of the same binary disagree by more than a metric's bound.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"darco/export"
	"darco/perf"
)

// setupEvery is how many cycles of the untraced pass run on one set-up
// before it is torn down and built again: setup_s is the median over the
// set-ups, which are spread over the run like every other metric's samples.
const setupEvery = 2

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	out      string
	update   bool
}

func main() {
	var o options
	var checkRepeat bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 0, "input seed: added to every generator seed and permutes job rosters (0 = the paper roster)")
	flag.Float64Var(&o.seconds, "seconds", 18, "length of the timed section")
	flag.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, untraced; 1 = per-layer metrics with spans and counters")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: scales / 4, one warm-up and two rounds")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for traces and temporary stores")
	flag.BoolVar(&checkRepeat, "check-repeat", false, "run the end-to-end set twice and fail if a metric moves by more than its bound")
	flag.BoolVar(&o.update, "update-expected", false, "with -seed 0: rewrite "+expectedPath+" from this run")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	switch {
	case checkRepeat:
		os.Exit(runCheckRepeat(o))
	case o.workload == "all":
		os.Exit(runAll(o))
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	var res result
	var err error
	if o.trace == 0 {
		res, err = untracedPass(w, o)
	} else {
		res, err = tracedPass(w, o)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// timed calls fn until budget is spent, at least min times; in quick mode
// exactly min times.
func timed(budget time.Duration, min int, quick bool, fn func()) int {
	t0 := time.Now()
	n := 0
	for n < min || (!quick && time.Since(t0) < budget) {
		fn()
		n++
	}
	return n
}

func share(o options, s float64) time.Duration {
	return time.Duration(o.seconds * s * float64(time.Second))
}

// finish closes the env, checks nothing the harness started is still
// running, and packs the result line.
func finish(w workloadDef, e *env, or *oracle, goroutines int, defs []metricDef, vals map[string]float64, o options) (result, error) {
	if err := e.close(); err != nil {
		return result{}, fmt.Errorf("tear-down: %w", err)
	}
	if leaked := settleGoroutines(goroutines); leaked > 0 {
		or.failOp("%d goroutines outlived the run", leaked)
	}
	if o.update && o.seed == 0 {
		if err := or.mergeExpected(); err != nil {
			return result{}, err
		}
	}
	metrics, err := collect(defs, vals)
	if err != nil {
		return result{}, err
	}
	for _, d := range defs {
		fmt.Printf("%s %s %s %s\n", w.name, d.name, strconv.FormatFloat(vals[d.name], 'g', -1, 64), d.unit)
	}
	return result{Correct: or.failed == 0, Attempted: or.attempted, Failed: or.failed, Metrics: metrics}, nil
}

// settleGoroutines waits briefly for server and connection goroutines to
// unwind and reports how many more are alive than before the run.
func settleGoroutines(before int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - before
}

// untracedPass measures the end-to-end set. After one discarded warm-up
// cycle it repeats a cycle of bare rounds, the job roster as a bare
// campaign, one served job and one federated job until the time is spent:
// a closed loop of one operation in flight and one busy goroutine, with
// every metric's samples spread over the whole run so that a noisy spell
// on a shared host spoils a minority of each. Timings are medians over
// cycles, in nominal-host time (hostclock.go); the bare pass takes the
// median per program before summing, so one slow session does not spoil
// its round.
func untracedPass(w workloadDef, o options) (result, error) {
	or, err := newOracle(o.seed, o.update)
	if err != nil {
		return result{}, err
	}
	goroutines := runtime.NumGoroutine()
	min := 3
	if o.quick {
		min = 2
	}
	clock := newHostClock()
	var e *env
	var setups []float64
	setup := func() error {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
			// Otherwise the high-water mark is one set-up's heap on top of
			// however much of the last one's the collector had not reached.
			runtime.GC()
		}
		clock.sample()
		t0 := time.Now()
		var err error
		if e, err = setUp(w, o.seed, o.quick, o.out, or); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	if err := setup(); err != nil {
		return result{}, err
	}

	var (
		ops                         [][]float64 // per bare operation, one wall per round
		campaign, served, federated []float64
		insns, allocated            uint64
		rounds                      int
		m0, m1                      runtime.MemStats
	)
	// cycle runs the workload's bare rounds, then the job roster bare and
	// through each tier. A campaign workload's bare round is the bare job
	// already.
	cycle := func() {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < w.bareRounds; i++ {
			rs, walls := e.bareRound(nil, clock)
			if ops == nil {
				ops = make([][]float64, len(walls))
			}
			for op, wall := range walls {
				ops[op] = append(ops[op], wall.Seconds())
			}
			insns = rs.guestInsns
		}
		runtime.ReadMemStats(&m1)
		allocated += m1.TotalAlloc - m0.TotalAlloc
		rounds += w.bareRounds

		job := func(walls *[]float64, wall time.Duration) {
			*walls = append(*walls, wall.Seconds())
			clock.sample()
		}
		clock.sample()
		if !w.campaign {
			job(&campaign, e.bareJob())
		}
		job(&served, e.servedJob(e.body, nil).total)
		job(&federated, e.federatedJob(nil).total)
	}
	cycle() // warm-up, discarded
	ops, campaign, served, federated, allocated, rounds = nil, nil, nil, nil, 0, 0
	cycles := 0
	timed(time.Duration(o.seconds*float64(time.Second)), min, o.quick, func() {
		if cycles++; err == nil && cycles%setupEvery == 0 {
			err = setup()
		}
		if err == nil {
			cycle()
		}
	})
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# %s n: %d cycles of %d bare rounds + 1 bare, 1 served and 1 federated job, after 1 warm-up cycle; %d set-ups\n",
		w.name, cycles, w.bareRounds, len(setups))
	if w.campaign {
		campaign = ops[0]
	}

	var round float64
	for _, walls := range ops {
		round += perf.Median(walls)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	host := clock.factor()
	vals := map[string]float64{
		"guest_mips":         float64(insns) / (round / host) / 1e6,
		"alloc_mb_per_round": float64(allocated) / float64(rounds) / 1e6,
		"peak_rss_mb":        rss,
	}
	fmt.Printf("# %s host factor %.3f (median of %d samples); as measured: guest_mips %.4g",
		w.name, host, len(clock.factors), float64(insns)/round/1e6)
	for _, t := range []struct {
		name  string
		walls []float64
	}{{"bare_campaign_s", campaign}, {"served_job_s", served}, {"federated_job_s", federated}, {"setup_s", setups}} {
		raw := perf.Median(t.walls)
		vals[t.name] = raw / host
		fmt.Printf(" %s %.4g", t.name, raw)
	}
	fmt.Println()
	return finish(w, e, or, goroutines, endToEnd, vals, o)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// tracedPass measures the per-layer set: bare rounds with spans and engine
// counters next to untraced ones, traced jobs through both tiers, the
// replay harness, and the store probes. It writes the trace file.
func tracedPass(w workloadDef, o options) (result, error) {
	or, err := newOracle(o.seed, o.update)
	if err != nil {
		return result{}, err
	}
	goroutines := runtime.NumGoroutine()
	e, err := setUp(w, o.seed, o.quick, o.out, or)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	tr := &tracer{}
	s := samples{}
	vals := map[string]float64{}

	// Bare rounds, untraced and traced in turn.
	var plain, traced []float64
	var first, last roundStats
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	pairs := timed(share(o, 0.2), 2, o.quick, func() {
		rs, _ := e.bareRound(nil, nil)
		plain = append(plain, ms(rs.wall))
		last, _ = e.bareRound(tr, nil)
		traced = append(traced, ms(last.wall))
		if len(traced) == 1 {
			first = last
		} else if last.counts() != first.counts() {
			or.failOp("exact counts changed between traced rounds:\n  %+v\n  %+v", first.counts(), last.counts())
		}
	})
	runtime.ReadMemStats(&m1)
	first.emit(vals)
	vals["darco.round_ms_p50"] = perf.Median(plain)
	vals["darco.round_ms_p80"] = percentile(plain, 0.8)
	vals["darco.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / float64(2*pairs)
	vals["obs.trace_overhead_x"] = perf.Median(traced) / perf.Median(plain)

	// Jobs through both tiers, each next to the bare campaign it is read
	// against: the ratios are taken within an iteration, where the host
	// is most nearly the same for both.
	runtime.GC()
	jobs := timed(share(o, 0.25), 1, o.quick, func() {
		bare := e.bareJob().Seconds()
		run := e.servedJob(e.body, tr)
		s.add("serve.overhead_x", run.total.Seconds()/bare)
		s.add("serve.submit_ack_ms_p50", ms(run.ack))
		s.add("serve.first_row_ms", ms(run.firstRow))
		s.add("serve.export_fetch_ms", ms(run.export))
		s.add("serve.event_frames", float64(run.frames))
		if run.final.StartedAt != nil {
			s.add("serve.queue_wait_ms", ms(run.final.StartedAt.Sub(run.final.SubmittedAt)))
		}
		s.add("serve.overhead_notelemetry_x", e.servedJob(e.bodyNoTel, nil).total.Seconds()/bare)

		jobsBefore, _, err := workerJobs(e.d.client, e.d.workers)
		if err != nil {
			or.failOp("worker job list: %v", err)
			return
		}
		reqBefore := e.d.coordRT.requests.Load()
		fed := e.federatedJob(tr)
		s.add("sched.overhead_x", fed.total.Seconds()/run.total.Seconds())
		s.add("sched.http_requests_per_job", float64(e.d.coordRT.requests.Load()-reqBefore))
		jobsAfter, lastFinish, err := workerJobs(e.d.client, e.d.workers)
		if err != nil {
			or.failOp("worker job list: %v", err)
			return
		}
		s.add("sched.shards", float64(jobsAfter-jobsBefore))
		if fed.final.FinishedAt != nil {
			s.add("sched.gather_lag_ms", ms(fed.final.FinishedAt.Sub(lastFinish)))
		}
	})

	// The replay harness and the store probes.
	runtime.GC()
	p, err := newProbes(e, o.quick)
	if err != nil {
		return result{}, err
	}
	if err := p.run(share(o, 0.45)); err != nil {
		return result{}, err
	}
	p.derive(vals, first, time.Duration(perf.Median(plain)*1e6))
	rep, _, _, err := e.bareCampaign(e.jobEng, nil, 0)
	if err != nil {
		return result{}, err
	}
	if err := storeProbes(e.tmp, e.body, export.Rows(rep), o.quick, vals); err != nil {
		return result{}, fmt.Errorf("store probes: %w", err)
	}

	for name, xs := range s {
		vals[name] = perf.Median(xs)
	}

	// Counts the program makes must repeat bit-for-bit within the run.
	for _, d := range perLayer {
		if !d.exact {
			continue
		}
		for _, xs := range [][]float64{s[d.name], p.s[d.name]} {
			if slices.ContainsFunc(xs, func(x float64) bool { return x != xs[0] }) {
				or.failOp("exact metric %s changed within the run: %v", d.name, xs)
			}
		}
	}
	fmt.Printf("# %s n: %d round pairs, %d jobs per tier\n", w.name, pairs, jobs)

	path, err := tr.write(o.out, w.name)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# %s trace %s (%d spans)\n", w.name, path, len(tr.spans))
	tr.printSelfTimes(w.name)
	return finish(w, e, or, goroutines, perLayer, vals, o)
}

// emit writes the exact counts of one bare round as layer metrics.
func (rs *roundStats) emit(vals map[string]float64) {
	pct := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	vals["tol.dispatches"] = float64(rs.dispatches)
	vals["tol.bb_translations"] = float64(rs.bbTrans)
	vals["tol.sb_translations"] = float64(rs.sbTrans)
	vals["tol.assert_rebuilds"] = float64(rs.assertReb)
	vals["tol.spec_rebuilds"] = float64(rs.specReb)
	vals["tol.guest_insns_im"] = float64(rs.im)
	vals["tol.guest_insns_bbm"] = float64(rs.bbm)
	vals["tol.guest_insns_sbm"] = float64(rs.sbm)
	vals["tol.overhead_share"] = pct(rs.tolInsns, rs.tolInsns+rs.hostAppInsns)
	vals["tol.decode_hit_rate"] = pct(rs.decodeHits, rs.decodeHits+rs.decodeMisses)
	vals["tol.block_hit_rate"] = pct(rs.blockHits, rs.blockHits+rs.blockMisses)
	vals["tol.code_flushes"] = float64(rs.codeFlushes)
	vals["hostvm.host_per_guest_sbm"] = float64(rs.hostSBM) / math.Max(float64(rs.sbm), 1)
	vals["controller.syscall_syncs"] = float64(rs.syscallSyncs)
	vals["controller.validations"] = float64(rs.validations)
	vals["controller.page_transfers"] = float64(rs.pageTransfers)
}

// child runs this binary on one workload and returns its result line.
func child(o options, workload string, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", o.out}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.update {
		args = append(args, "-update-expected")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("workload %s: %w", workload, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("workload %s: result line: %w", workload, err)
	}
	return res, nil
}

// runAll runs every workload, each in its own process, sequentially.
func runAll(o options) int {
	code := 0
	for _, w := range workloads {
		res, err := child(o, w.name, o.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("# %s attempted %d failed %d\n", w.name, res.Attempted, res.Failed)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runCheckRepeat runs the end-to-end set twice on this binary and
// compares the two by each metric's own bound.
func runCheckRepeat(o options) int {
	code := 0
	for _, w := range workloads {
		var runs [2]result
		for i := range runs {
			var err error
			if runs[i], err = child(o, w.name, 0); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !runs[i].Correct {
				code = 1
			}
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.name].Value, runs[1].Metrics[d.name].Value
			apart := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if apart > d.bound {
				verdict = "UNSTEADY"
				code = 1
			}
			fmt.Printf("# repeat %s %s %g vs %g (%.1f%% apart, bound %.0f%%) %s\n",
				w.name, d.name, a, b, 100*apart, 100*d.bound, verdict)
		}
	}
	return code
}
