// Package sched is the fleet coordinator: an HTTP daemon that accepts
// the same campaign submissions as darco/serve, shards the scenario
// roster across a pool of darco-served workers, and merges the rows
// they stream back into exports that are byte-identical to a
// single-node run.
//
// # API
//
//	POST   /api/v1/jobs                submit a campaign (serve.SubmitRequest JSON) → 202 + JobStatus
//	GET    /api/v1/jobs                list jobs (?state=queued,running,... filters)
//	GET    /api/v1/jobs/{id}           one job's JobStatus
//	POST   /api/v1/jobs/{id}/cancel    stop a job (also DELETE /api/v1/jobs/{id})
//	GET    /api/v1/jobs/{id}/events    re-multiplexed live stream: SSE, or NDJSON with ?format=ndjson
//	GET    /api/v1/jobs/{id}/trace     stitched federated trace (coordinator + worker spans); ?format=chrome for Perfetto
//	GET    /api/v1/jobs/{id}/export.json|csv|ndjson|html
//	                                   merged results, same renderer as a worker
//	GET    /api/v1/workers             the worker pool with health and placement counters
//	POST   /api/v1/workers             register a worker ({"url": "http://host:port"})
//	GET    /healthz                    liveness + pool summary
//	GET    /metrics                    Prometheus text exposition: job, recovery and placement families
//
// # Why sharding preserves bytes
//
// Scenario rows carry only deterministic counters (darco's per-scenario
// Stats are pinned at any parallelism), and every export format is
// keyed on scenario order, not completion order. The coordinator
// expands the submission's roster exactly like a worker would, splits
// it into contiguous shards, and re-submits each shard as explicit
// profile × scale × name scenarios; the worker reproduces exactly the
// rows the same scenarios would have produced in one campaign.
// Committed at their global scenario index, the federated export.json,
// export.csv, export.ndjson, and export.html are byte-identical to the
// single-node bytes (the default, wall-stripped views; per-row wall
// metrics are not gathered, so ?wall=1 reports the coordinator's
// campaign wall and the shard count with zero per-row columns).
//
// # What is shared with the worker daemon
//
// Everything about a job's life — the queue and its 429, the states,
// journaling and restart recovery with Options.Store, the event stream,
// the REST routes above under /api/v1/jobs, graceful shutdown — is
// darco/internal/jobs, documented there. This package is that kernel's
// Runner for a fleet: a job is plan → place → gather, and a job the
// coordinator died inside is resumed from its journaled shard plan and
// placement leases (durable.go).
//
// # Robustness
//
// Workers are health-probed (GET /healthz) in the background and on
// demand. A 429 from a worker's full queue backs the placement off
// without blacklisting it; a transport error marks the worker
// unhealthy until a probe sees it again. When a worker dies mid-shard
// — or a restarted worker reports the shard job interrupted — the
// coordinator re-dispatches only the scenarios whose rows it has not
// yet gathered, on the next worker, with capped exponential backoff.
// Errorless rows count as they stream in — that is what "resuming
// from rows already gathered" means here — while errored rows enter
// only through the harvest of a shard that ended done or failed (a
// restarted daemon synthesizes error rows for never-finished
// scenarios; those must not leak into the merged export). A shard that
// exhausts its retry budget degrades the job: the campaign ends in the
// coordinator-only "degraded" terminal state with synthesized error
// rows for the scenarios no worker could run.
package sched

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"darco/internal/jobs"
	"darco/obs"
	"darco/store"
)

// Options configures a Coordinator. The zero value runs one federated
// campaign at a time over an empty pool (register workers via POST
// /api/v1/workers).
type Options struct {
	// Workers are the static worker base URLs ("http://host:port")
	// registered at startup; POST /api/v1/workers adds more at runtime.
	Workers []string

	// Jobs is how many federated campaigns run concurrently (min 1).
	Jobs int

	// QueueCapacity bounds how many accepted jobs may wait for a
	// runner (min 1); beyond it, submissions get 429.
	QueueCapacity int

	// MaxScenarios rejects submissions whose roster exceeds it (0 =
	// unlimited).
	MaxScenarios int

	// MaxShards caps how many shards one job fans out to (0 = one per
	// healthy worker at plan time).
	MaxShards int

	// ShardRetries is how many consecutive fruitless placement
	// attempts a shard survives before the job degrades (default 4;
	// attempts that gather new rows reset the budget).
	ShardRetries int

	// RetryBaseDelay/RetryMaxDelay bound the exponential backoff
	// between a shard's placement attempts (defaults 100ms and 5s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// ProbeInterval is the background health-probe period (default 5s).
	ProbeInterval time.Duration

	// RequestTimeout bounds every control-plane request to a worker —
	// submit, status, probe, harvest, cancel. Event streams are not
	// subject to it (default 15s).
	RequestTimeout time.Duration

	// ReplayBuffer bounds each federated job's event replay ring
	// (< 1 selects the stream package default).
	ReplayBuffer int

	// Store, when non-nil, is the coordinator's durable state: every
	// federated job's lifecycle — submission, shard plan, placement
	// leases, gathered rows at global indices, shard and job terminals
	// — is journaled through it, and its recovered histories are
	// restored (terminal jobs served, queued jobs re-queued, mid-run
	// jobs resumed by re-adopting their worker-side shard jobs) at
	// New. The caller owns the store and closes it after Shutdown.
	Store *store.Store

	// Client overrides the HTTP client used for worker control-plane
	// requests (tests). Event streams always use a timeout-free copy.
	Client *http.Client

	// Log receives structured operational log records (nil = discard).
	Log *slog.Logger

	// StoreMetrics, when non-nil, are the latency histograms the
	// caller's durable store reports into; the coordinator exposes them
	// on /metrics as darco_store_append_seconds / darco_store_fsync_seconds.
	StoreMetrics *store.Metrics
}

// JobDegraded is the coordinator-only terminal state: the worker pool
// was exhausted (every placement attempt for some shard failed, past
// the retry cap) and the federated campaign finished with synthesized
// error rows for the scenarios that were never gathered.
const JobDegraded = jobs.JobDegraded

// Coordinator is the fleet daemon: an http.Handler plus the job queue,
// shard runners, and worker pool behind it. Create with New, serve it
// with any net/http server, stop it with Shutdown.
type Coordinator struct {
	opts Options
	mux  *http.ServeMux
	k    *jobs.Kernel
	pool *pool
	id   string // coordinator instance id for /healthz and trace spans
	log  *slog.Logger

	client       *http.Client // control plane; per-request timeouts via context
	streamClient *http.Client // event streams; no overall timeout

	// baseCtx bounds the prober and registration probes; the jobs run
	// under the kernel's own.
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	stopped atomic.Bool // Shutdown or Halt has been called

	// halted simulates a crash (tests): once set, worker-side shard jobs
	// are left untouched, exactly as SIGKILL would leave them.
	halted atomic.Bool

	// recov counts what recovery did and placementAttempts how many
	// tries each shard took; both are exposed on /metrics.
	recov             recoveryStats
	placementAttempts *obs.Histogram
	// cleanStop records that the store held a clean-shutdown marker.
	cleanStop bool

	// placed indexes, by job id, every worker-side job a federated
	// campaign ever placed — the addresses a stitched trace fetches
	// worker spans from. It outlives the run: a job restored terminal
	// gets its entries from the journaled placement leases.
	placedMu sync.Mutex
	placed   map[string][]placementRef
}

// recoveryStats are the darco_sched_recovery_* counters beyond what the
// kernel counts: what re-adoption salvaged and how. Atomics because
// adoption updates them from concurrent shard gatherers.
type recoveryStats struct {
	readoptedShards  atomic.Uint64 // shard jobs re-attached on their worker
	backfilledRows   atomic.Uint64 // rows recovered through re-adoption
	redispatched     atomic.Uint64 // shards whose lease was dead → re-dispatch path
	salvageDiscarded atomic.Uint64 // journal bytes dropped by corruption salvage
}

// New builds a Coordinator over the static worker list, restores any
// history found in Options.Store, probes the pool once, and starts the
// runners and the background prober. It fails only on malformed worker
// URLs — unreachable workers are fine, the prober picks them up when
// they appear.
func New(opts Options) (*Coordinator, error) {
	if opts.ShardRetries < 1 {
		opts.ShardRetries = 4
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = 100 * time.Millisecond
	}
	if opts.RetryMaxDelay <= 0 {
		opts.RetryMaxDelay = 5 * time.Second
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 5 * time.Second
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 15 * time.Second
	}
	c := &Coordinator{
		opts:   opts,
		pool:   newPool(),
		id:     jobs.InstanceID("darco-sched"),
		log:    opts.Log,
		client: opts.Client,
		placed: make(map[string][]placementRef),

		placementAttempts: obs.NewHistogram(obs.LinearBuckets(1, 1, 8)),
	}
	if c.log == nil {
		c.log = slog.New(slog.DiscardHandler)
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	// Streams must outlive any client-level timeout; copy the
	// transport but not the deadline.
	c.streamClient = &http.Client{Transport: c.client.Transport}
	for _, raw := range opts.Workers {
		if _, _, err := c.pool.add(raw); err != nil {
			return nil, err
		}
	}
	c.baseCtx, c.stop = context.WithCancel(context.Background())
	if st := opts.Store; st != nil {
		c.recov.salvageDiscarded.Store(uint64(st.Recovery().DiscardedBytes))
		for _, m := range st.Meta() {
			c.cleanStop = c.cleanStop || m.Kind == store.KindCleanShutdown
		}
		for _, h := range st.Jobs() {
			for _, pl := range h.Placements {
				c.notePlacement(h.ID, pl.Worker, pl.WorkerJob)
			}
		}
	}
	c.k = jobs.New(jobs.Config{
		Runner:        runner{c},
		Workers:       opts.Jobs,
		QueueCapacity: opts.QueueCapacity,
		ReplayBuffer:  opts.ReplayBuffer,
		Store:         opts.Store,
		StoreMetrics:  opts.StoreMetrics,
		Log:           opts.Log,
		Service:       c.id,
		MetricPrefix:  "darco_sched",
		Metrics:       c.writeMetrics,
	})
	c.mux = c.routes()
	c.probeAll(c.baseCtx)
	c.k.Start()
	c.wg.Add(1)
	go c.prober()
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Shutdown stops the coordinator gracefully: new submissions are
// rejected, running federated jobs are cancelled (their worker-side
// shard jobs cancelled best-effort) and journaled terminal, queued
// jobs are left queued in the journal for the next start to re-queue
// (without a store they are marked cancelled), and — once every runner
// has drained — a clean-shutdown marker is journaled so the next open
// can tell this stop from a crash. Idempotent; the marker only lands
// if the drain beat ctx.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	first := !c.stopped.Swap(true)
	if err := c.k.Shutdown(ctx); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	c.stop()
	c.wg.Wait()
	// Every gatherer and runner is stopped and its terminal records are
	// on disk; the marker is the last write, so its presence certifies
	// the whole drain.
	if first {
		c.k.Journal(store.Record{Kind: store.KindCleanShutdown})
	}
	return nil
}

// Halt simulates the coordinator dying (tests): journal writes,
// compaction, and worker-side shard cancels are suppressed, then the
// goroutines are drained. The data directory and the workers are left
// exactly as SIGKILL at this instant would leave them — no terminal
// records, no clean-shutdown marker, shard jobs still running.
func (c *Coordinator) Halt() {
	c.stopped.Store(true)
	c.halted.Store(true)
	c.k.Halt()
	c.stop()
	c.wg.Wait()
}

// runner is the kernel's Runner for a fleet: plan → place → gather over
// the worker pool.
type runner struct{ *Coordinator }

// fed is what a federated job carries beside the kernel's record: the
// parsed submission its shards forward, and the shard plan — cut when
// the job first runs, or rebuilt from the journal by Resume.
type fed struct {
	req    *jobs.SubmitRequest
	shards []*shard
}

// fedJob is one federated job as the gather path sees it: the kernel's
// record, the coordinator's part, and the context the run stops with.
type fedJob struct {
	*jobs.Job
	*fed
	ctx context.Context
}

// Validate checks a campaign submission at the coordinator's edge — same
// SubmitRequest schema, same roster expansion, same engine validation a
// worker performs — so a bad submission never reaches a worker.
func (c runner) Validate(raw []byte, restored bool) (*jobs.Plan, error) {
	req, err := jobs.ParseSubmit(raw)
	if err != nil {
		return nil, err
	}
	// With restored set a sub-floor telemetry interval is raised to the
	// floor in req: the shards forward that section verbatim, and a
	// worker refuses a new submission below it.
	roster, _, err := req.Validate(c.opts.MaxScenarios, restored)
	if err != nil {
		return nil, err
	}
	return &jobs.Plan{Name: req.Name, Roster: roster, Spec: &fed{req: req}}, nil
}

// Run drives one federated campaign: plan shards over the healthy pool,
// gather each shard concurrently, then settle the terminal state. A
// resumed job arrives with its journaled plan and placement leases
// instead of planning afresh.
func (c runner) Run(ctx context.Context, kj *jobs.Job) jobs.Outcome {
	j := &fedJob{Job: kj, fed: kj.Spec.(*fed), ctx: ctx}
	if len(j.shards) == 0 {
		// Plan one shard per healthy worker (capped), so a fully-live
		// pool takes one shard each; zero healthy workers still plan a
		// single shard whose placement loop waits for the pool to come
		// up.
		healthy := c.pool.healthyCount()
		if healthy == 0 {
			healthy = c.probeAll(ctx)
		}
		k := healthy
		if c.opts.MaxShards > 0 && k > c.opts.MaxShards {
			k = c.opts.MaxShards
		}
		j.shards = planShards(len(j.Roster), k)
		specs := make([]store.ShardSpec, len(j.shards))
		for i, sh := range j.shards {
			specs[i] = store.ShardSpec{Start: sh.indices[0], Count: len(sh.indices)}
		}
		c.k.Journal(store.Record{Kind: store.KindShardPlan, Job: j.ID,
			ShardPlan: &store.ShardPlanRecord{Shards: specs}})
		c.log.Info("job planned", "job_id", j.ID, "trace_id", j.TraceID,
			"scenarios", len(j.Roster), "shards", len(j.shards), "healthy_workers", healthy)
	}

	shardErrs := make([]error, len(j.shards))
	var wg sync.WaitGroup
	for i, sh := range j.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			shardStart := time.Now()
			shardErrs[i] = c.runShard(j, sh)
			c.shardSpan(j, sh, shardStart, time.Now(), shardErrs[i])
		}(i, sh)
	}
	wg.Wait()

	out := jobs.Outcome{State: jobs.JobDone, Parallelism: len(j.shards)}
	missing := 0
	for _, sh := range j.shards {
		missing += len(j.Missing(sh.indices))
	}
	switch st := j.Status(); {
	case ctx.Err() != nil:
		for _, sh := range j.shards {
			c.cancelShard(sh)
		}
		out.State, out.Err = jobs.JobCancelled, fmt.Errorf("cancelled: %w", ctx.Err())
	case missing > 0:
		// The kernel seals the scenarios no worker produced with this
		// error, like the worker daemon's interrupted/cancelled exports.
		out.State, out.Err = JobDegraded, fmt.Errorf("worker pool exhausted")
		for _, err := range shardErrs {
			if err != nil {
				out.Err = fmt.Errorf("worker pool exhausted: %w", err)
				break
			}
		}
	case st.Failed > 0:
		out.State, out.Err = jobs.JobFailed, fmt.Errorf("%d of %d scenarios failed", st.Failed, len(j.Roster))
	}
	return out
}
