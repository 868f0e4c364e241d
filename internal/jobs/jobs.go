// Package jobs is the job kernel under both campaign daemons: the one
// implementation of everything darco-served and darco-sched do
// identically. It owns the queued → running → terminal state machine
// and its wire types, the registry with sequential ids, the bounded
// queue, the runner goroutines, every journaling point, restart replay,
// the per-job event stream, span recording, the REST surface under
// /api/v1/jobs and the common /metrics families — and is parameterised
// by exactly one Runner, which is all a daemon has to be.
//
// # Lifecycle and journaling points
//
//	accepted      submitted         the raw body, under the submit lock, before a worker can pop the job
//	worker pickup span queue-wait, started
//	while running row, telemetry, span — through Job.Commit, Job.Telemetry, Job.RecordSpan
//	client cancel cancel_requested  once, before the context cancels
//	terminal      row for every index nobody committed, span run, span job, finished — then the
//	              job's records are compacted into its snapshot
//	restart       interrupted       for a running history the Runner cannot resume
//
// Journal failures never fail a job: the daemon keeps serving from
// memory and the operator sees the log line.
//
// # Stop versus cancel
//
// A job that has not started is ended by its client's cancel, never by
// the daemon's own stop, as long as there is a journal to carry it to
// the next start. With a store a stopping daemon closes a queued job's
// stream and leaves it queued on disk; without one the job is marked
// cancelled, because nothing else would ever end it. Running jobs end
// cancelled on a graceful stop either way.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	darco "darco"
	"darco/obs"
	"darco/store"
)

// Runner is what a daemon adds to the kernel: how a submission is
// validated and how a job is run.
type Runner interface {
	// Validate turns a raw submission body into a Plan, or says why it
	// cannot run here. restored is set when raw comes from the journal
	// and not from a client: limits that were introduced after the job
	// was accepted are then applied leniently.
	Validate(raw []byte, restored bool) (*Plan, error)

	// Run executes a started job: it commits a row for each scenario
	// index it gets an outcome for (Job.Commit), in any order, and
	// returns the terminal state, the job's error and its parallelism.
	// It stops when ctx ends. Indices it leaves uncommitted are sealed
	// with the returned error.
	Run(ctx context.Context, j *Job) Outcome

	// Resume decides the fate of a history journaled running when the
	// daemon died: a Plan picks the job up again — it re-enters the
	// queue with its journaled rows in place and Run is called on it —
	// and an error, naming why not, lands it interrupted.
	Resume(h *store.JobHistory) (*Plan, error)
}

// Plan is a validated submission.
type Plan struct {
	Name   string
	Roster []darco.Scenario
	// Spec is the Runner's own compiled form of the submission, handed
	// back to Run as Job.Spec.
	Spec any
}

// Outcome is how a run ended.
type Outcome struct {
	State       JobState // terminal
	Err         error
	Parallelism int
}

// Config is what a daemon fixes at construction.
type Config struct {
	Runner Runner

	// Workers is how many jobs run concurrently (min 1); QueueCapacity
	// bounds how many accepted jobs may wait for one (min 1, default
	// 16) — beyond it submissions get 429. On recovery the queue is
	// widened if the journal holds more live jobs than this, so no
	// accepted job is ever dropped.
	Workers       int
	QueueCapacity int

	// ReplayBuffer bounds each job's event replay ring (< 1 selects the
	// stream package default).
	ReplayBuffer int

	// Store, when non-nil, is the durable store job lifecycles are
	// journaled through and restored from. The caller owns it and
	// closes it after Shutdown. StoreMetrics are the histograms that
	// store observes, exposed on /metrics.
	Store        *store.Store
	StoreMetrics *store.Metrics

	Log *slog.Logger // nil = discard

	// Service names this daemon instance in the spans it records.
	Service string
	// MetricPrefix names the common metric families: <prefix>_jobs,
	// <prefix>_queue_depth, ...
	MetricPrefix string
	// Metrics, when non-nil, writes the daemon's own families on every
	// /metrics scrape, after the job families.
	Metrics func(*obs.Writer)
}

// Kernel is the job machinery behind one daemon: an http.Handler for
// the job routes and /metrics, plus the queue and workers behind it.
// Create with New, start the workers with Start, stop with Shutdown.
type Kernel struct {
	cfg       Config
	log       *slog.Logger
	mux       *http.ServeMux
	jobs      registry
	queueWait *obs.Histogram // <prefix>_job_queue_wait_seconds
	start     time.Time
	recovered Recovered

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	// halted simulates a crash (tests): once set, nothing more reaches
	// the journal, so the on-disk state freezes exactly as SIGKILL
	// would leave it.
	halted atomic.Bool

	mu      sync.Mutex
	queue   chan *Job
	closing bool
}

// New builds a Kernel and restores any history found in Config.Store:
// recovered live jobs are in the queue, in submission order, before
// the first new one can be. No job runs until Start.
func New(cfg Config) *Kernel {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueCapacity < 1 {
		cfg.QueueCapacity = 16
	}
	k := &Kernel{cfg: cfg, log: cfg.Log, start: time.Now()}
	if k.log == nil {
		k.log = slog.New(slog.DiscardHandler)
	}
	k.jobs.jobs = make(map[string]*Job)
	k.baseCtx, k.stop = context.WithCancel(context.Background())
	k.queueWait = obs.NewHistogram(obs.ExpBuckets(0.001, 4, 10))
	requeue := k.restoreJobs()
	// The submission capacity check is against the configured capacity,
	// so a channel widened for a restored backlog does not raise the
	// operator's shed point.
	k.queue = make(chan *Job, max(cfg.QueueCapacity, len(requeue)))
	for _, j := range requeue {
		k.queue <- j
	}
	k.mux = k.routes()
	return k
}

// Start launches the workers. The daemon calls it once its Runner is
// ready to be handed jobs.
func (k *Kernel) Start() {
	for w := 0; w < k.cfg.Workers; w++ {
		k.wg.Add(1)
		go func() {
			defer k.wg.Done()
			for j := range k.queue {
				k.runJob(j)
			}
		}()
	}
}

// ServeHTTP serves the job routes and /metrics.
func (k *Kernel) ServeHTTP(w http.ResponseWriter, r *http.Request) { k.mux.ServeHTTP(w, r) }

// What the daemons' /healthz payloads report: the worker count and
// queue capacity after defaulting, how many accepted jobs are waiting
// for a worker, how many the registry holds, and the time since New.
func (k *Kernel) Workers() int          { return k.cfg.Workers }
func (k *Kernel) QueueCapacity() int    { return k.cfg.QueueCapacity }
func (k *Kernel) QueueDepth() int       { return len(k.queue) }
func (k *Kernel) JobCount() int         { return len(k.jobs.list()) }
func (k *Kernel) Uptime() time.Duration { return time.Since(k.start) }

// InstanceID derives a daemon instance's default identity,
// "<hostname>-<pid>", with fallback standing in for an unknown host.
func InstanceID(fallback string) string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = fallback
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// Shutdown stops the kernel: new submissions are rejected (503), the
// context under every job is cancelled — running ones end cancelled
// within one check interval of their Runner, queued ones follow the
// stop-versus-cancel rule in the package comment — all event streams
// close, and the call waits, up to ctx, for the workers. Idempotent.
func (k *Kernel) Shutdown(ctx context.Context) error {
	k.closeQueue()
	done := make(chan struct{})
	go func() {
		k.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("shutdown: %w", ctx.Err())
	}
}

// Halt simulates the daemon dying (tests): journal writes and
// compaction are suppressed, then the workers are drained. The data
// directory is left exactly as SIGKILL at this instant would leave it —
// no terminal records, queued jobs queued, running jobs running.
func (k *Kernel) Halt() {
	k.halted.Store(true)
	k.closeQueue()
	k.wg.Wait()
}

func (k *Kernel) closeQueue() {
	k.mu.Lock()
	if !k.closing {
		k.closing = true
		close(k.queue)
	}
	k.mu.Unlock()
	k.stop()
}

// Journal appends one record to the durable store, if there is one and
// the kernel is not halted. Runners journal their own record kinds
// through it.
func (k *Kernel) Journal(rec store.Record) {
	if k.cfg.Store == nil || k.halted.Load() {
		return
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	if err := k.cfg.Store.Append(rec); err != nil {
		k.log.Error("journal append failed", "kind", string(rec.Kind), "job_id", rec.Job, "err", err)
	}
}

// journalEnd journals job id's closing record, e, and freezes its
// records into its snapshot.
func (k *Kernel) journalEnd(id string, e ending) {
	rec := store.Record{Kind: store.KindFinished, Job: id, Time: e.finished,
		Finished: &store.FinishedRecord{State: string(e.State), WallMS: e.wallMS, Parallelism: e.Parallelism}}
	if e.Err != nil {
		rec.Finished.Error = e.Err.Error()
	}
	if e.State == JobInterrupted {
		rec.Kind, rec.Interrupted, rec.Finished = store.KindInterrupted, &store.InterruptedRecord{Reason: rec.Finished.Error}, nil
	}
	k.Journal(rec)
	if k.cfg.Store == nil || k.halted.Load() {
		return
	}
	if err := k.cfg.Store.CompactJob(id); err != nil {
		k.log.Error("snapshot compaction failed", "job_id", id, "err", err)
	}
}

var (
	errQueueFull = errors.New("job queue is full")
	errClosing   = errors.New("daemon is shutting down")
)

// submit enqueues a validated job, reporting queue-full and
// shutting-down conditions distinctly. The status it returns is the
// job's at acceptance, snapshotted before the job reaches the queue:
// once it is there an idle worker may start it at any moment, and the
// 202 must still say what the submission got — a queue slot.
func (k *Kernel) submit(plan *Plan, raw []byte, traceID, parentSpan string) (JobStatus, error) {
	j := k.newJob(plan, raw, time.Now())
	j.TraceID, j.parentSpan = traceID, parentSpan
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closing {
		return JobStatus{}, errClosing
	}
	// Capacity is checked before the job becomes visible: a rejected
	// submission leaves no trace (the client owns the retry) and ids
	// stay sequential in accepted-submission order. The send below
	// cannot block — k.mu serializes all senders, the channel is at
	// least the configured capacity, and the depth was just checked;
	// workers only receive.
	if len(k.queue) >= k.cfg.QueueCapacity {
		return JobStatus{}, errQueueFull
	}
	// The cancellable context is derived only for accepted jobs — a
	// child of baseCtx stays registered there until cancelled, so a
	// client retry-looping against a full queue must not leak one per
	// attempt.
	j.ctx, j.cancel = context.WithCancel(k.baseCtx)
	k.jobs.add(j)
	// Journaled before a worker can pop it: a daemon that dies right
	// here re-queues the job instead of forgetting the accepted 202.
	k.Journal(store.Record{Kind: store.KindSubmitted, Job: j.ID, Time: j.submitted,
		Submitted: &store.SubmittedRecord{Name: j.Name, Scenarios: len(j.Roster), Request: raw,
			TraceID: traceID, ParentSpan: parentSpan}})
	accepted := j.Status()
	k.queue <- j
	return accepted, nil
}

// runJob takes one popped job to a terminal state — or, for a job the
// daemon's own stop reached first, leaves it for the next start.
func (k *Kernel) runJob(j *Job) {
	// Release the job's context registration in baseCtx once terminal;
	// a long-running daemon would otherwise pin one child context per
	// job ever run. The cancel endpoint's extra calls are no-ops.
	defer j.cancel()
	defer j.events.Close()
	// A stop cancels baseCtx first and reaches the jobs under it one at
	// a time: the job it just freed this worker from may end before this
	// one's context is cancelled, so baseCtx is asked first.
	err := k.baseCtx.Err()
	if err == nil {
		err = j.ctx.Err()
	}
	if err != nil {
		j.mu.Lock()
		clientCancel := j.cancelRequested
		j.mu.Unlock()
		if clientCancel || k.cfg.Store == nil {
			k.finish(j, Outcome{State: JobCancelled, Err: fmt.Errorf("cancelled while queued: %w", err)})
		}
		return
	}

	j.mu.Lock()
	j.state = JobRunning
	j.runSpan = obs.NewSpanID()
	if !j.resumed {
		j.started = time.Now()
	}
	started, submitted := j.started, j.submitted
	j.mu.Unlock()
	if !j.resumed {
		k.queueWait.Observe(started.Sub(submitted).Seconds())
		j.RecordSpan(obs.NewSpan(j.TraceID, j.rootSpan, "queue-wait", k.cfg.Service, submitted, started))
		k.Journal(store.Record{Kind: store.KindStarted, Job: j.ID, Time: started})
	}
	k.log.Info("job running", "job_id", j.ID, "trace_id", j.TraceID, "scenarios", len(j.Roster), "resumed", j.resumed)
	j.events.PublishTransient(EventState, j.Status())

	k.finish(j, k.cfg.Runner.Run(j.ctx, j))
}

// finish ends a live job: a row for every index nobody committed, the
// closing spans, the terminal record and snapshot, the terminal state,
// and the final state frame. The state flips last (write-ahead): a
// client that reads a terminal status reads what a crash would keep.
func (k *Kernel) finish(j *Job, out Outcome) {
	reason := out.Err
	if reason == nil {
		reason = errors.New("scenario never ran")
	}
	j.seal(reason)
	e := j.settle(out)
	k.finishSpans(j, e)
	k.journalEnd(j.ID, e)
	j.end(e)
	st := j.Status()
	k.log.Info("job finished", "job_id", j.ID, "trace_id", j.TraceID, "state", string(st.State),
		"completed", st.Completed, "scenarios", st.Scenarios, "failed", st.Failed)
	j.events.PublishTransient(EventState, st)
}
