// Package serve is the long-running campaign service: an HTTP API that
// accepts campaign submissions, runs them on a bounded job queue and
// worker pool layered over Engine.RunCampaign, and serves results in
// every darco/export format plus a live event stream per job.
//
// # API
//
//	POST   /api/v1/jobs                submit a campaign (SubmitRequest JSON) → 202 + JobStatus
//	GET    /api/v1/jobs                list jobs (JobStatus array; ?state=queued,running,... filters)
//	GET    /api/v1/jobs/{id}           one job's JobStatus
//	POST   /api/v1/jobs/{id}/cancel    stop a queued or running job (also DELETE /api/v1/jobs/{id})
//	GET    /api/v1/jobs/{id}/events    live stream: SSE, or NDJSON with ?format=ndjson
//	GET    /api/v1/jobs/{id}/export.json|csv|ndjson|html
//	                                   results rendered on demand (?wall=1 adds wall-clock metrics)
//	GET    /api/v1/jobs/{id}/trace     the job's trace: span tree JSON, or ?format=chrome for Perfetto
//	GET    /api/v1/profiles            the workload roster submissions can name
//	GET    /healthz                    liveness + queue depth
//	GET    /metrics                    Prometheus text exposition (obs.Writer, at scrape time)
//
// Everything about a job's life — the queue and its 429, the states,
// journaling and restart recovery with Options.Store, the event stream,
// shutdown — is darco/internal/jobs, shared with the fleet coordinator
// and documented there. This package is that kernel's Runner for a
// single node: a submission compiles to a scenario roster plus a ready
// engine, and a job is one Engine.RunCampaign whose scenario-done hook
// commits the deterministic export row (wall metrics included), whose
// session hook attaches a darco/telemetry windower per scenario, and
// whose scenarios record scenario/warmup/emulate spans. A job caught
// mid-run by a crash cannot be resumed — the engine keeps no checkpoint
// — so a restarted daemon marks it JobInterrupted with the rows that
// completed before the crash preserved.
//
// Exports are rendered from the job's stored scenario rows with
// darco/export defaults, so fetching export.json or export.csv for a
// completed job yields bytes identical to an offline export of the
// same scenarios — whether the job ran under this process or was
// restored from the durable store after a restart.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	darco "darco"
	"darco/export"
	"darco/internal/jobs"
	"darco/obs"
	"darco/store"
	"darco/telemetry"
)

// Options configures a Server. The zero value serves with sensible
// defaults: one campaign at a time, a 16-deep queue, campaign
// parallelism capped at GOMAXPROCS, no persistence.
type Options struct {
	// Workers is how many campaign jobs run concurrently (min 1).
	// Scenario-level parallelism multiplies under it, so the total CPU
	// footprint is roughly Workers × MaxParallelism.
	Workers int

	// QueueCapacity bounds how many accepted jobs may wait for a
	// worker (min 1); beyond it, submissions get 429. On recovery the
	// queue is widened if the journal holds more re-queued jobs than
	// this, so no accepted job is ever dropped.
	QueueCapacity int

	// MaxParallelism caps any job's scenario worker pool (0 =
	// GOMAXPROCS). Submissions asking for more (or for the default)
	// are clamped to it.
	MaxParallelism int

	// MaxScenarios rejects submissions with more scenarios than this
	// (0 = unlimited).
	MaxScenarios int

	// Store, when non-nil, is the durable campaign store: job
	// lifecycles are journaled through it and its recovered histories
	// are restored into the server at New. The caller owns the store
	// and closes it after Shutdown.
	Store *store.Store

	// ReplayBuffer bounds each job's event replay ring (0 = 1024
	// frames). Late stream subscribers receive up to this many
	// historical frames before live ones.
	ReplayBuffer int

	// WorkerID identifies this daemon instance in its /healthz payload
	// so a fleet coordinator (darco-sched) and operators can tell pool
	// members apart. Empty derives "<hostname>-<pid>".
	WorkerID string

	// Log, when non-nil, receives the server's structured log records
	// (job transitions with job_id/trace_id attrs, journal failures,
	// stream errors). The daemon wires a text handler on stderr; nil
	// runs silent, which is what tests want.
	Log *slog.Logger

	// StoreMetrics, when non-nil, are the latency histograms the
	// durable store observes (the same instance passed to store.Open);
	// the server writes them into its /metrics exposition.
	StoreMetrics *store.Metrics
}

// Server is the campaign daemon: an http.Handler plus the job queue
// and worker pool behind it. Create with New, serve it with any
// net/http server, and stop it with Shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux
	k    *jobs.Kernel
}

// New builds a Server, restores any history found in Options.Store,
// and starts its workers.
func New(opts Options) *Server {
	if opts.MaxParallelism < 1 {
		opts.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if opts.WorkerID == "" {
		opts.WorkerID = jobs.InstanceID("darco")
	}
	// The engine counters exist before the kernel does: its recovery
	// re-validates queued submissions, and Validate hands obs-enabled
	// jobs the daemon's shared instance.
	run := &runner{
		opts:         opts,
		scenarioWall: obs.NewHistogram(obs.ExpBuckets(0.01, 4, 10)),
		engCtrs:      &obs.EngineCounters{},
	}
	s := &Server{opts: opts}
	s.k = jobs.New(jobs.Config{
		Runner:        run,
		Workers:       opts.Workers,
		QueueCapacity: opts.QueueCapacity,
		ReplayBuffer:  opts.ReplayBuffer,
		Store:         opts.Store,
		StoreMetrics:  opts.StoreMetrics,
		Log:           opts.Log,
		Service:       opts.WorkerID,
		MetricPrefix:  "darco",
		Metrics:       func(w *obs.Writer) { run.writeMetrics(w, s.k.Workers()) },
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /api/v1/profiles", s.handleProfiles)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("/", s.k)
	s.k.Start()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown stops the service: new submissions are rejected (503), every
// running job is cancelled — its scenarios stop within one engine check
// interval — queued jobs stay queued in the store for the next start
// (or, without a store, are marked cancelled), all event streams close,
// and the call waits — up to ctx — for the workers to finish. The
// store, owned by the caller, is closed after Shutdown returns, so
// every terminal record lands in the journal first. It is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.k.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// runner is the kernel's Runner for a single node: Engine.RunCampaign
// with the telemetry windowers and scenario spans.
type runner struct {
	opts         Options
	scenarioWall *obs.Histogram // darco_scenario_wall_seconds
	// engCtrs is the daemon's shared engine profiling instance: jobs
	// whose submission sets engine.obs attach it, and /metrics reads
	// its totals into the darco_engine_* families.
	engCtrs *obs.EngineCounters
}

// jobSpec is a validated submission: everything a worker needs to run
// the campaign.
type jobSpec struct {
	eng               *darco.Engine
	parallelism       int
	scenarioTimeout   time.Duration
	failFast          bool
	telemetryOff      bool
	telemetryInterval uint64
}

// Validate parses a submission and compiles it to a roster plus a ready
// engine.
func (s *runner) Validate(raw []byte, restored bool) (*jobs.Plan, error) {
	req, err := jobs.ParseSubmit(raw)
	if err != nil {
		return nil, err
	}
	// The obs opt-in binds to this server's shared counter instance.
	var extra []darco.Option
	if req.Engine != nil && req.Engine.Obs {
		extra = append(extra, darco.WithObsCounters(s.engCtrs))
	}
	roster, eng, err := req.Validate(s.opts.MaxScenarios, restored, extra...)
	if err != nil {
		return nil, err
	}
	spec := &jobSpec{
		eng:               eng,
		parallelism:       req.Parallelism,
		scenarioTimeout:   time.Duration(req.ScenarioTimeoutMS) * time.Millisecond,
		failFast:          req.FailFast,
		telemetryInterval: telemetry.DefaultInterval,
	}
	if spec.parallelism == 0 || spec.parallelism > s.opts.MaxParallelism {
		spec.parallelism = s.opts.MaxParallelism
	}
	if t := req.Telemetry; t != nil {
		spec.telemetryOff = t.Disable
		if t.IntervalInsns != 0 {
			spec.telemetryInterval = t.IntervalInsns
		}
	}
	return &jobs.Plan{Name: req.Name, Roster: roster, Spec: spec}, nil
}

// Resume refuses a job the daemon died inside: the engine keeps no
// checkpoint to pick a campaign up from.
func (s *runner) Resume(*store.JobHistory) (*jobs.Plan, error) {
	return nil, errors.New("daemon restarted mid-run")
}

// Run executes one campaign job. RunCampaign calls the scenario-done
// hooks exactly once per scenario — failed and never-started ones
// included — so every row is committed by the time it returns.
func (s *runner) Run(ctx context.Context, j *jobs.Job) jobs.Outcome {
	spec := j.Spec.(*jobSpec)
	copts := []darco.CampaignOption{
		darco.WithParallelism(spec.parallelism),
		darco.WithScenarioDone(func(i int, sr *darco.ScenarioResult) {
			s.scenarioWall.Observe(sr.Wall.Seconds())
			s.scenarioSpans(j, sr, time.Now())
			j.Commit(i, export.NewRow(sr, export.WithWallTimes()))
		}),
	}
	if spec.scenarioTimeout > 0 {
		copts = append(copts, darco.WithScenarioTimeout(spec.scenarioTimeout))
	}
	if spec.failFast {
		copts = append(copts, darco.WithFailFast())
	}
	if !spec.telemetryOff {
		winds := &windowers{j: j, interval: spec.telemetryInterval, m: make(map[int]*telemetry.Windower)}
		copts = append(copts,
			darco.WithScenarioSession(winds.attach),
			darco.WithScenarioDone(winds.flush))
	}

	rep, err := spec.eng.RunCampaign(ctx, j.Roster, copts...)
	switch {
	case err != nil:
		// Only the job context cuts a campaign short: a cancel request
		// or server shutdown.
		return jobs.Outcome{State: JobCancelled, Err: err, Parallelism: rep.Parallelism}
	case rep.Err() != nil:
		return jobs.Outcome{State: JobFailed, Err: rep.Err(), Parallelism: rep.Parallelism}
	}
	return jobs.Outcome{State: JobDone, Parallelism: rep.Parallelism}
}

// windowers owns one job's per-scenario telemetry state: a
// darco/telemetry windower per in-flight session, attached through the
// campaign's session hook and flushed from its scenario-done hook.
// Session hooks run concurrently on the campaign's worker goroutines,
// so the map is locked; each windower itself stays single-goroutine
// (its scenario's session goroutine, which is also the goroutine its
// scenario-done callback runs on).
type windowers struct {
	j        *jobs.Job
	interval uint64
	mu       sync.Mutex
	m        map[int]*telemetry.Windower
}

// attach is the darco.WithScenarioSession hook.
func (ws *windowers) attach(i int, sc *darco.Scenario, sess *darco.Session) {
	name := sc.Name
	if name == "" {
		name = sc.Profile.Name
	}
	wd := telemetry.NewWindower(ws.interval, func(w telemetry.Window) { ws.j.Telemetry(i, name, w) })
	wd.Attach(sess)
	ws.mu.Lock()
	ws.m[i] = wd
	ws.mu.Unlock()
}

// flush is a darco.WithScenarioDone hook: it emits the scenario's
// final partial window once the session is finished. Scenarios that
// never built a session (generation failures, cancelled before start)
// have no windower.
func (ws *windowers) flush(i int, sr *darco.ScenarioResult) {
	ws.mu.Lock()
	wd := ws.m[i]
	delete(ws.m, i)
	ws.mu.Unlock()
	if wd != nil {
		wd.Flush()
	}
}
