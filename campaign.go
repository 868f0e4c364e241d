package darco

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"darco/internal/workload"
)

// Scenario is one named workload × configuration point of a campaign.
type Scenario struct {
	// Name labels the scenario in the report; defaults to the profile
	// name.
	Name string
	// Profile is the synthetic workload to generate and run.
	Profile workload.Profile
	// Scale is the workload dynamic-size scale factor (0 = 1.0).
	Scale float64
	// Options refine the campaign engine's configuration for this
	// scenario only (e.g. a threshold sweep point or an attached timing
	// simulator).
	Options []Option
}

func (sc *Scenario) name() string {
	if sc.Name != "" {
		return sc.Name
	}
	return sc.Profile.Name
}

// SuiteScenarios returns the paper's full 31-benchmark roster
// (workload.Suites) as campaign scenarios at the given scale, each
// carrying the supplied per-scenario options.
func SuiteScenarios(scale float64, opts ...Option) []Scenario {
	var out []Scenario
	for _, p := range workload.Suites() {
		out = append(out, Scenario{Name: p.Name, Profile: p, Scale: scale, Options: opts})
	}
	return out
}

// CampaignOption configures a campaign execution.
type CampaignOption func(*campaignConfig)

type campaignConfig struct {
	parallelism int
	timeout     time.Duration
	failFast    bool
	onDone      []func(i int, sr *ScenarioResult)
	onSession   []func(i int, sc *Scenario, s *Session)
}

// WithParallelism bounds the campaign worker pool to n concurrent
// scenarios (default GOMAXPROCS; values < 1 mean the default).
func WithParallelism(n int) CampaignOption {
	return func(c *campaignConfig) { c.parallelism = n }
}

// WithScenarioTimeout cancels any single scenario that runs longer than
// d (0 = no per-scenario timeout).
func WithScenarioTimeout(d time.Duration) CampaignOption {
	return func(c *campaignConfig) { c.timeout = d }
}

// WithFailFast cancels the rest of the campaign — scenarios currently
// in flight and scenarios not yet started — as soon as one fails. The
// default policy runs every scenario and collects errors in the
// report.
func WithFailFast() CampaignOption {
	return func(c *campaignConfig) { c.failFast = true }
}

// WithScenarioDone streams per-scenario outcomes as workers finish:
// fn runs exactly once per scenario — including failed and
// never-started ones — with the scenario's index in the campaign's
// scenario order. Calls are serialized under a campaign-internal
// mutex, so fn need not be concurrency-safe, but they arrive in
// completion order; exporters that need scenario order (darco/export's
// streaming writers) reorder on the index. fn runs on worker
// goroutines: a slow callback stalls that worker's scenario pipeline.
// The option composes: every WithScenarioDone callback runs, in the
// order the options were given (darco-bench streams CSV and NDJSON
// from one campaign this way).
func WithScenarioDone(fn func(i int, sr *ScenarioResult)) CampaignOption {
	return func(c *campaignConfig) { c.onDone = append(c.onDone, fn) }
}

// WithScenarioSession installs fn as a per-scenario session hook: it
// runs after a scenario's Session is constructed and before the
// session executes, with the scenario's index in the campaign's
// scenario order. The hook is how long-lived consumers attach
// per-session state — most importantly Session.SubscribeRetires, which
// must be called on the session's goroutine before it runs (the serve
// daemon's live telemetry hangs off this hook). Unlike WithScenarioDone
// callbacks, hooks are NOT serialized: they run concurrently on the
// worker goroutines, so fn must be safe for concurrent calls. Scenarios
// that fail before a session exists (generation or configuration
// errors, campaign already cancelled) never invoke the hook. The
// session is valid until its Run returns: its memory then goes to the
// next session the process runs, so a hook may keep nothing that reads
// the session afterwards (the retire stream's events are copies). Like
// WithScenarioDone, the option composes: every hook runs, in the order
// the options were given.
func WithScenarioSession(fn func(i int, sc *Scenario, s *Session)) CampaignOption {
	return func(c *campaignConfig) { c.onSession = append(c.onSession, fn) }
}

// ScenarioResult is one scenario's outcome.
type ScenarioResult struct {
	Scenario Scenario
	Result   *Result // nil when Err is set
	Err      error
	Wall     time.Duration
}

// CampaignReport aggregates a campaign's outcomes, in scenario order
// regardless of completion order.
type CampaignReport struct {
	Results     []ScenarioResult
	Wall        time.Duration // wall time of the whole campaign
	Parallelism int
}

// Failed returns the scenarios that did not complete.
func (r *CampaignReport) Failed() []*ScenarioResult {
	var out []*ScenarioResult
	for i := range r.Results {
		if r.Results[i].Err != nil {
			out = append(out, &r.Results[i])
		}
	}
	return out
}

// Err joins every scenario error (nil when all scenarios completed).
func (r *CampaignReport) Err() error {
	var errs []error
	for i := range r.Results {
		if r.Results[i].Err != nil {
			errs = append(errs, r.Results[i].Err)
		}
	}
	return errors.Join(errs...)
}

// SerialWall reports the summed per-scenario wall time — what a serial
// run would roughly have cost — for comparison against Wall.
func (r *CampaignReport) SerialWall() time.Duration {
	var sum time.Duration
	for i := range r.Results {
		sum += r.Results[i].Wall
	}
	return sum
}

// Format renders the report as an aligned text table, slowest scenario
// first, with the aggregate line at the bottom.
func (r *CampaignReport) Format() string {
	idx := make([]int, len(r.Results))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.Results[idx[a]].Wall > r.Results[idx[b]].Wall })
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-14s %12s %14s  %s\n", "scenario", "suite", "wall", "guest insns", "status")
	for _, i := range idx {
		sr := &r.Results[i]
		status := "ok"
		var guest uint64
		if sr.Err != nil {
			status = "FAILED: " + sr.Err.Error()
		}
		if sr.Result != nil {
			guest = sr.Result.Stats.GuestInsns()
		}
		fmt.Fprintf(&b, "%-18s %-14s %12s %14d  %s\n",
			sr.Scenario.name(), sr.Scenario.Profile.Suite, sr.Wall.Round(time.Millisecond), guest, status)
	}
	fmt.Fprintf(&b, "%d scenarios on %d workers: %s wall (%s serial-equivalent), %d failed\n",
		len(r.Results), r.Parallelism, r.Wall.Round(time.Millisecond),
		r.SerialWall().Round(time.Millisecond), len(r.Failed()))
	return b.String()
}

// RunCampaign executes the scenarios across a bounded worker pool,
// deriving a per-scenario engine from this engine's configuration plus
// the scenario's options. Results keep scenario order. Per-scenario
// failures are recorded in the report (and, under WithFailFast, cancel
// the whole remaining campaign, in-flight scenarios included); the
// returned error is non-nil only when the campaign itself was cut
// short by ctx.
//
// Scenario execution is deterministic: a campaign's per-scenario Stats
// are identical whatever the parallelism, so the paper's figures can be
// regenerated on a full worker pool.
func (e *Engine) RunCampaign(ctx context.Context, scenarios []Scenario, opts ...CampaignOption) (*CampaignReport, error) {
	cc := campaignConfig{parallelism: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(&cc)
	}
	if cc.parallelism < 1 {
		cc.parallelism = runtime.GOMAXPROCS(0)
	}
	if cc.parallelism > len(scenarios) && len(scenarios) > 0 {
		cc.parallelism = len(scenarios)
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	rep := &CampaignReport{Results: make([]ScenarioResult, len(scenarios)), Parallelism: cc.parallelism}
	jobs := make(chan int, len(scenarios))
	for i := range scenarios {
		jobs <- i
	}
	close(jobs)

	start := time.Now()
	var wg sync.WaitGroup
	var doneMu sync.Mutex
	done := func(i int) {
		if len(cc.onDone) == 0 {
			return
		}
		doneMu.Lock()
		defer doneMu.Unlock()
		for _, fn := range cc.onDone {
			fn(i, &rep.Results[i])
		}
	}
	for w := 0; w < cc.parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					rep.Results[i] = ScenarioResult{Scenario: scenarios[i],
						Err: fmt.Errorf("%s: not started: %w", scenarios[i].name(), err)}
					done(i)
					continue
				}
				rep.Results[i] = e.runScenario(ctx, i, scenarios[i], &cc)
				if rep.Results[i].Err != nil && cc.failFast {
					cancel()
				}
				done(i)
			}
		}()
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	// Fail-fast cancellation is internal and reported through the
	// per-scenario errors; only the caller's own cancellation surfaces.
	if err := parent.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// runScenario generates the scenario's workload and runs it on a
// derived engine.
func (e *Engine) runScenario(ctx context.Context, i int, sc Scenario, cc *campaignConfig) (out ScenarioResult) {
	out = ScenarioResult{Scenario: sc}
	start := time.Now()
	defer func() { out.Wall = time.Since(start) }()

	// Workload generation is not context-aware, so a cancellation that
	// races the worker loop's check must be caught here — before the
	// potentially expensive Generate — for the campaign to stop
	// promptly (the serve daemon's cancel endpoint depends on it).
	if err := ctx.Err(); err != nil {
		out.Err = fmt.Errorf("%s: not started: %w", sc.name(), err)
		return out
	}
	scale := sc.Scale
	if scale == 0 {
		scale = 1
	}
	// Campaigns sweep configurations over a fixed workload roster;
	// memoizing generation by (profile, scale) means a suite rerun or a
	// threshold sweep pays workload.Generate once per distinct image.
	im, err := workload.CachedImage(sc.Profile.Scale(scale))
	if err != nil {
		out.Err = fmt.Errorf("%s: generate: %w", sc.name(), err)
		return out
	}
	eng, err := e.derive(sc.Options...)
	if err != nil {
		out.Err = fmt.Errorf("%s: %w", sc.name(), err)
		return out
	}
	if cc.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cc.timeout)
		defer cancel()
	}
	sess, err := eng.NewSession(im)
	if err != nil {
		out.Err = fmt.Errorf("%s: %w", sc.name(), err)
		return out
	}
	for _, fn := range cc.onSession {
		fn(i, &out.Scenario, sess)
	}
	res, err := sess.runOnce(ctx)
	if err != nil {
		out.Err = fmt.Errorf("%s: %w", sc.name(), err)
		return out
	}
	out.Result = res
	return out
}
