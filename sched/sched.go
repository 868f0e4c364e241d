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
//	GET    /metrics                    Prometheus-style exposition with per-worker counters
//
// # Why sharding preserves bytes
//
// Scenario rows carry only deterministic counters (darco's per-scenario
// Stats are pinned at any parallelism), and every export format is
// keyed on scenario order, not completion order. The coordinator
// expands the submission's roster exactly like a worker would, splits
// it into contiguous shards, and re-submits each shard as explicit
// profile × scale × name scenarios; the worker reproduces exactly the
// rows the same scenarios would have produced in one campaign. Merged
// through an export.Sequencer on global scenario index, the federated
// export.json, export.csv, export.ndjson, and export.html are
// byte-identical to the single-node bytes (the default, wall-stripped
// views; per-row wall metrics are not gathered, so ?wall=1 reports the
// coordinator's campaign wall with zero per-row columns).
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
// Rows from a shard that ended cancelled or interrupted are
// quarantined if they carry errors (a restarted daemon synthesizes
// error rows for never-finished scenarios; those must not leak into
// the merged export), while errorless rows count immediately — that is
// what "resuming from rows already gathered" means here. A shard that
// exhausts its retry budget degrades the job: the campaign ends in the
// coordinator-only "degraded" terminal state with synthesized error
// rows for the scenarios no worker could run.
package sched

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	darco "darco"
	"darco/export"
	"darco/obs"
	"darco/serve"
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

func (o Options) withDefaults() Options {
	if o.Jobs < 1 {
		o.Jobs = 1
	}
	if o.QueueCapacity < 1 {
		o.QueueCapacity = 16
	}
	if o.ShardRetries < 1 {
		o.ShardRetries = 4
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 100 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = 5 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 15 * time.Second
	}
	return o
}

// Coordinator is the fleet daemon: an http.Handler plus the job queue,
// shard runners, and worker pool behind it. Create with New, serve it
// with any net/http server, stop it with Shutdown.
type Coordinator struct {
	opts    Options
	mux     *http.ServeMux
	jobs    *registry
	pool    *pool
	start   time.Time
	id      string // coordinator instance id for /healthz and trace spans
	log     *slog.Logger
	metrics *schedMetrics

	client       *http.Client // control plane; per-request timeouts via context
	streamClient *http.Client // event streams; no overall timeout

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	// halted simulates a crash (tests): once set, nothing more reaches
	// the journal and worker-side shard jobs are left untouched, so the
	// on-disk and worker-side state freeze exactly as SIGKILL would
	// leave them.
	halted atomic.Bool

	// recov counts what recovery did; exposed on /metrics.
	recov recoveryStats

	mu      sync.Mutex
	queue   chan *job
	closing bool
}

// recoveryStats are the darco_sched_recovery_* counters: what the last
// restore salvaged and how. Atomics because adoption updates them from
// concurrent shard gatherers.
type recoveryStats struct {
	resumedJobs      atomic.Uint64 // mid-run jobs resumed by re-adoption
	requeuedJobs     atomic.Uint64 // queued jobs re-queued
	readoptedShards  atomic.Uint64 // shard jobs re-attached on their worker
	backfilledRows   atomic.Uint64 // rows recovered through re-adoption
	redispatched     atomic.Uint64 // shards whose lease was dead → re-dispatch path
	salvageDiscarded atomic.Uint64 // journal bytes dropped by corruption salvage
}

// New builds a Coordinator over the static worker list, probes it
// once, and starts the runners and the background prober. It fails
// only on malformed worker URLs — unreachable workers are fine, the
// prober picks them up when they appear.
func New(opts Options) (*Coordinator, error) {
	c := &Coordinator{
		opts:  opts.withDefaults(),
		jobs:  newRegistry(),
		pool:  newPool(),
		start: time.Now(),
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "darco-sched"
	}
	c.id = fmt.Sprintf("%s-%d", host, os.Getpid())
	c.log = c.opts.Log
	if c.log == nil {
		c.log = slog.New(slog.DiscardHandler)
	}
	c.client = c.opts.Client
	if c.client == nil {
		c.client = &http.Client{}
	}
	// Streams must outlive any client-level timeout; copy the
	// transport but not the deadline.
	c.streamClient = &http.Client{Transport: c.client.Transport}
	for _, raw := range c.opts.Workers {
		if _, _, err := c.pool.add(raw); err != nil {
			return nil, err
		}
	}
	c.baseCtx, c.stop = context.WithCancel(context.Background())
	c.initMetrics()
	// Restore before the runners start: recovered jobs enter the queue
	// first, and the queue widens past the configured capacity if the
	// journal holds more live jobs than it (none may be dropped).
	// Submission capacity checks are against the configured capacity,
	// so a widened queue does not raise the operator's shed point.
	requeue := c.restoreJobs()
	capacity := c.opts.QueueCapacity
	if len(requeue) > capacity {
		capacity = len(requeue)
	}
	c.queue = make(chan *job, capacity)
	for _, j := range requeue {
		c.queue <- j
	}
	c.mux = c.routes()
	c.probeAll(c.baseCtx)
	for i := 0; i < c.opts.Jobs; i++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for j := range c.queue {
				c.runJob(j)
			}
		}()
	}
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
// jobs are left queued in the journal for the next start to re-queue,
// and — once every runner has drained — a clean-shutdown marker is
// journaled so the next open can tell this stop from a crash.
// Idempotent; the marker only lands if the drain beat ctx.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	already := c.closing
	c.closing = true
	if !already {
		close(c.queue)
	}
	c.mu.Unlock()
	c.stop()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every gatherer and runner is stopped and its terminal
		// records are on disk; the marker is the last write, so its
		// presence certifies the whole drain.
		if !already {
			c.journal(store.Record{Kind: store.KindCleanShutdown})
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sched: shutdown: %w", ctx.Err())
	}
}

// Halt simulates the coordinator dying (tests): journal writes,
// compaction, and worker-side shard cancels are suppressed, then the
// goroutines are drained. The data directory and the workers are left
// exactly as SIGKILL at this instant would leave them — no terminal
// records, no clean-shutdown marker, shard jobs still running.
func (c *Coordinator) Halt() {
	c.halted.Store(true)
	c.mu.Lock()
	already := c.closing
	c.closing = true
	if !already {
		close(c.queue)
	}
	c.mu.Unlock()
	c.stop()
	c.wg.Wait()
}

// journal appends one record to the durable store, if there is one.
// Journal failures never fail the job — the coordinator keeps serving
// from memory and the operator sees the log line. A halted (crashing)
// coordinator writes nothing.
func (c *Coordinator) journal(rec store.Record) {
	if c.opts.Store == nil || c.halted.Load() {
		return
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	if err := c.opts.Store.Append(rec); err != nil {
		c.log.Error("journal append failed", "kind", string(rec.Kind), "job_id", rec.Job, "err", err)
	}
}

// compact freezes a terminal job's journal records into its snapshot.
func (c *Coordinator) compact(id string) {
	if c.opts.Store == nil || c.halted.Load() {
		return
	}
	if err := c.opts.Store.CompactJob(id); err != nil {
		c.log.Error("snapshot compaction failed", "job_id", id, "err", err)
	}
}

// finishJob journals a job's terminal record, compacts its history
// into a snapshot, and returns the final status.
func (c *Coordinator) finishJob(j *job) serve.JobStatus {
	j.mu.Lock()
	fin := &store.FinishedRecord{
		State:       string(j.state),
		WallMS:      j.wallMS,
		Parallelism: len(j.shards),
	}
	if j.err != nil {
		fin.Error = j.err.Error()
	}
	when := j.finished
	j.mu.Unlock()
	c.journal(store.Record{Kind: store.KindFinished, Job: j.id, Time: when, Finished: fin})
	c.compact(j.id)
	return j.status()
}

// enqueue admits a validated job or reports why it cannot run now. The
// submitted record is journaled under the same lock that reserves the
// queue slot: it must land before a runner can pop the job (records
// stay in lifecycle order) and must not land at all for a rejected
// submission (a 429'd job re-queued after a restart would be a ghost).
// The status it returns is the job's at acceptance, snapshotted before
// the job reaches the queue: once it is there an idle runner may start
// it at any moment, and the 202 must still say what the submission got
// — a queue slot.
func (c *Coordinator) enqueue(j *job) (serve.JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closing {
		return serve.JobStatus{}, errClosing
	}
	// Capacity is checked against the configured capacity, not the
	// channel's: a channel widened for a restored backlog must not
	// raise the shed point for new submissions.
	if len(c.queue) >= c.opts.QueueCapacity {
		return serve.JobStatus{}, errQueueFull
	}
	c.journal(store.Record{Kind: store.KindSubmitted, Job: j.id, Time: j.submitted,
		Submitted: &store.SubmittedRecord{Name: j.name, Scenarios: len(j.roster), Request: j.raw,
			TraceID: j.traceID, ParentSpan: j.parentSpan}})
	accepted := j.status()
	c.queue <- j
	return accepted, nil
}

var (
	errClosing   = fmt.Errorf("coordinator is shutting down")
	errQueueFull = fmt.Errorf("job queue is full")
)

// runJob drives one federated campaign: plan shards over the healthy
// pool, gather each shard concurrently, then settle the terminal state
// and seal the merged row set. A resumed job re-enters here with its
// journaled plan and placement leases instead of planning afresh.
func (c *Coordinator) runJob(j *job) {
	// Release the job's context registration in baseCtx once terminal.
	defer j.cancel()
	if err := j.ctx.Err(); err != nil {
		j.mu.Lock()
		clientCancel := j.cancelRequested
		j.mu.Unlock()
		if !clientCancel {
			// The coordinator is stopping, not the client cancelling:
			// leave the job queued on disk (no terminal record) so the
			// next start re-queues it instead of failing it.
			j.events.Close()
			return
		}
		// Cancelled while queued: never started, every row synthesized
		// — mirroring the worker daemon's cancelled-while-queued
		// outcome.
		if j.markCancelled(fmt.Errorf("cancelled while queued: %w", err)) {
			c.sealJob(j, j.allIndices())
			c.finishSpans(j)
			j.events.PublishTransient(serve.EventState, c.finishJob(j))
		}
		j.events.Close()
		return
	}

	j.mu.Lock()
	j.state = serve.JobRunning
	if !j.resumed {
		j.started = time.Now()
	}
	j.runSpan = obs.NewSpanID()
	started := j.started
	submitted := j.submitted
	resumed := j.resumed
	j.mu.Unlock()
	j.events.PublishTransient(serve.EventState, j.status())
	if !resumed {
		c.metrics.queueWait.Observe(started.Sub(submitted).Seconds())
		c.startSpans(j, started)
	}

	if j.resumed {
		c.log.Info("job resumed", "job_id", j.id, "trace_id", j.traceID,
			"scenarios", len(j.roster), "shards", len(j.shards), "rows_recovered", j.status().Completed)
	} else {
		c.journal(store.Record{Kind: store.KindStarted, Job: j.id, Time: started})
		// Plan one shard per healthy worker (capped), so a fully-live
		// pool takes one shard each; zero healthy workers still plan a
		// single shard whose placement loop waits for the pool to come
		// up.
		healthy := c.pool.healthyCount()
		if healthy == 0 {
			healthy = c.probeAll(j.ctx)
		}
		k := healthy
		if c.opts.MaxShards > 0 && k > c.opts.MaxShards {
			k = c.opts.MaxShards
		}
		j.shards = planShards(len(j.roster), k)
		specs := make([]store.ShardSpec, len(j.shards))
		for i, sh := range j.shards {
			specs[i] = store.ShardSpec{Start: sh.indices[0], Count: len(sh.indices)}
		}
		c.journal(store.Record{Kind: store.KindShardPlan, Job: j.id,
			ShardPlan: &store.ShardPlanRecord{Shards: specs}})
		c.log.Info("job running", "job_id", j.id, "trace_id", j.traceID,
			"scenarios", len(j.roster), "shards", len(j.shards), "healthy_workers", healthy)
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

	cancelled := j.ctx.Err() != nil
	if cancelled {
		for _, sh := range j.shards {
			c.cancelShard(sh)
		}
	}

	missing := j.missingOf(j.allIndices())
	j.mu.Lock()
	switch {
	case cancelled:
		if !terminal(j.state) { // cancel handler may have marked it already
			j.state = serve.JobCancelled
			if j.err == nil {
				j.err = fmt.Errorf("cancelled: %w", j.ctx.Err())
			}
		}
	case len(missing) > 0:
		j.state = JobDegraded
		for _, err := range shardErrs {
			if err != nil {
				j.err = fmt.Errorf("worker pool exhausted: %w", err)
				break
			}
		}
		if j.err == nil {
			j.err = fmt.Errorf("worker pool exhausted")
		}
	case j.failed > 0:
		j.state = serve.JobFailed
		j.err = fmt.Errorf("%d of %d scenarios failed", j.failed, len(j.roster))
	default:
		j.state = serve.JobDone
	}
	j.mu.Unlock()

	c.sealJob(j, missing)
	c.finishSpans(j)
	st := c.finishJob(j)
	c.log.Info("job finished", "job_id", j.id, "trace_id", j.traceID, "state", string(st.State),
		"completed", st.Completed, "scenarios", st.Scenarios, "failed", st.Failed)
	j.events.PublishTransient(serve.EventState, st)
	j.events.Close()
}

// sealJob synthesizes error rows for the scenarios no worker produced
// (carrying the job's terminal reason, like the worker daemon's
// interrupted/cancelled exports), closes the row sequencer, and marks
// the merged result exportable.
func (c *Coordinator) sealJob(j *job, missing []int) {
	j.mu.Lock()
	reason := j.err
	j.finished = time.Now()
	j.mu.Unlock()
	if reason == nil {
		reason = fmt.Errorf("scenario never ran")
	}
	for _, gi := range missing {
		row := export.NewRow(&darco.ScenarioResult{Scenario: j.roster[gi], Err: reason})
		j.commit(gi, row)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.seq.Close(); err != nil {
		// Unreachable by construction (missing covered every gap), but
		// a hole must not produce a silently-short export.
		c.log.Error("sealing merged rows failed", "job_id", j.id, "err", err)
	}
	if !j.started.IsZero() {
		j.wallMS = float64(j.finished.Sub(j.started).Nanoseconds()) / 1e6
	}
	j.ready = true
}

// allIndices returns 0..len(roster)-1.
func (j *job) allIndices() []int {
	out := make([]int, len(j.roster))
	for i := range out {
		out[i] = i
	}
	return out
}
