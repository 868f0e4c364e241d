// Package serve is the long-running campaign service: an HTTP API that
// accepts campaign submissions, runs them on a bounded job queue and
// worker pool layered over Engine.RunCampaign, and serves results in
// every darco/export format plus a live event stream per job.
//
// # API
//
//	POST   /api/v1/jobs                submit a campaign (SubmitRequest JSON) → 202 + JobStatus
//	GET    /api/v1/jobs                list jobs (JobStatus array)
//	GET    /api/v1/jobs/{id}           one job's JobStatus
//	POST   /api/v1/jobs/{id}/cancel    stop a queued or running job (also DELETE /api/v1/jobs/{id})
//	GET    /api/v1/jobs/{id}/events    live stream: SSE, or NDJSON with ?format=ndjson
//	GET    /api/v1/jobs/{id}/export.json|csv|ndjson|html
//	                                   results rendered on demand (?wall=1 adds wall-clock metrics)
//	GET    /api/v1/jobs/{id}/trace     the job's trace: span tree JSON, or ?format=chrome for Perfetto
//	GET    /api/v1/profiles            the workload roster submissions can name
//	GET    /healthz                    liveness + queue depth
//	GET    /metrics                    Prometheus text exposition (darco/obs registry)
//
// Exports are rendered from the job's stored scenario rows with
// darco/export defaults, so fetching export.json or export.csv for a
// completed job yields bytes identical to an offline export of the
// same scenarios — whether the job ran under this process or was
// restored from the durable store after a restart.
//
// # Jobs and backpressure
//
// A submission is validated, assigned an id, and placed on a bounded
// queue (JobQueued). Workers — Options.Workers campaigns at a time,
// each itself a parallel scenario pool — pop jobs in submission order
// and run them (JobRunning) to a terminal state: JobDone, JobFailed
// (some scenarios errored; the report is retained), JobCancelled, or —
// only ever assigned by a restarted daemon — JobInterrupted. When the
// queue is full, submissions are rejected with 429 so load sheds at
// the edge instead of accumulating unbounded state.
//
// # Durability
//
// With Options.Store set, every job's lifecycle is journaled as it
// happens: the accepted submission body, the start transition, each
// scenario's deterministic export row (wall metrics included), each
// telemetry window, and the terminal state. A daemon restarted over
// the same store directory replays that history: terminal jobs come
// back with byte-identical exports, jobs that were still queued are
// re-validated and re-queued, and jobs that were mid-run are marked
// JobInterrupted with the rows that completed before the crash
// preserved. Terminal jobs are compacted into immutable per-job
// snapshot files as they finish. Without a store the daemon runs
// in-memory, as before.
//
// # Live streams
//
// Every job carries an event broadcaster with a bounded replay ring.
// Streams open with a JobStatus snapshot frame, then the replayed
// prefix of everything the subscriber missed (for restored jobs, the
// journaled history), then live frames: scenario-completion rows (the
// deterministic export.Row), instruction-mix telemetry windows
// (darco/telemetry, attached per scenario through
// darco.WithScenarioSession), and state transitions; the stream ends
// with a final state frame once the job is terminal. Slow consumers
// lose intermediate frames, but the loss is explicit — an EventDropped
// marker carries the gap size — and the terminal state is always
// re-sent.
//
// # Shutdown
//
// Shutdown rejects new submissions (503), cancels the context under
// every queued and running campaign (running scenarios stop within one
// engine check interval and queued ones are marked cancelled), closes
// all event streams, and waits for the workers to drain. The store —
// owned by the caller — is closed after Shutdown returns, so every
// terminal record lands in the journal first.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	darco "darco"
	"darco/export"
	"darco/internal/stream"
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
	// the server registers them into its /metrics exposition.
	StoreMetrics *store.Metrics
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.QueueCapacity < 1 {
		o.QueueCapacity = 16
	}
	if o.MaxParallelism < 1 {
		o.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if o.WorkerID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "darco"
		}
		o.WorkerID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	return o
}

// Server is the campaign daemon: an http.Handler plus the job queue
// and worker pool behind it. Create with New, serve it with any
// net/http server, and stop it with Shutdown.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	jobs    *registry
	start   time.Time
	log     *slog.Logger
	metrics *serverMetrics

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu      sync.Mutex
	queue   chan *job
	closing bool
}

// New builds a Server, restores any history found in Options.Store,
// and starts its workers.
func New(opts Options) *Server {
	s := &Server{
		opts:  opts.withDefaults(),
		jobs:  newRegistry(),
		start: time.Now(),
	}
	s.log = s.opts.Log
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	// Metrics exist before recovery: restored re-queued submissions are
	// re-validated through buildSpec, which hands obs-enabled jobs the
	// registry's shared engine counters.
	s.initMetrics()
	requeue := s.restoreJobs()
	capacity := s.opts.QueueCapacity
	if len(requeue) > capacity {
		capacity = len(requeue)
	}
	s.queue = make(chan *job, capacity)
	for _, j := range requeue {
		s.queue <- j
	}
	s.mux = s.routes()
	for w := 0; w < s.opts.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown stops the service: new submissions are rejected, every
// queued and running job is cancelled, and the call waits — up to
// ctx — for the workers to finish. It is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closing
	s.closing = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	// Cancel the context under every job: running campaigns return
	// within one check interval, and queued jobs drained by the
	// workers are marked cancelled without starting.
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// journal appends one record to the durable store, if there is one.
// Journal failures never fail the job — the daemon keeps serving from
// memory and the operator sees the log line.
func (s *Server) journal(rec store.Record) {
	if s.opts.Store == nil {
		return
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	if err := s.opts.Store.Append(rec); err != nil {
		s.log.Error("journal append failed", "kind", string(rec.Kind), "job_id", rec.Job, "err", err)
	}
}

// compact freezes a terminal job's journal records into its snapshot.
func (s *Server) compact(id string) {
	if s.opts.Store == nil {
		return
	}
	if err := s.opts.Store.CompactJob(id); err != nil {
		s.log.Error("snapshot compaction failed", "job_id", id, "err", err)
	}
}

// restoreJobs replays the durable store's histories into the registry:
// terminal jobs come back served from their journaled rows, mid-run
// jobs are marked interrupted (and journaled as such), and queued jobs
// are re-validated for re-queueing. Returns the jobs to enqueue, in
// original submission order.
func (s *Server) restoreJobs() []*job {
	if s.opts.Store == nil {
		return nil
	}
	var requeue []*job
	for _, h := range s.opts.Store.Jobs() {
		switch h.State {
		case string(JobQueued):
			if h.CancelRequested {
				// The client cancelled while the job was queued and the
				// daemon died before a worker observed it. The rows
				// mirror what the live cancelled-while-queued path
				// synthesizes.
				reason := fmt.Errorf("cancelled while queued: %w", context.Canceled)
				j := s.restoreTerminal(h, JobCancelled, reason, reason)
				s.journalSynthesizedRows(j, h)
				s.journal(store.Record{Kind: store.KindFinished, Job: j.id,
					Finished: &store.FinishedRecord{State: string(JobCancelled), Error: j.err.Error()}})
				s.compact(j.id)
				sealRestored(j, h)
				s.log.Info("job cancelled while queued before the restart", "job_id", j.id, "trace_id", j.traceID)
				continue
			}
			var spec *jobSpec
			req, err := ParseSubmit(bytes.NewReader(h.Request))
			if err == nil {
				req.Telemetry.Clamp()
				spec, err = s.buildSpec(req)
			}
			if err != nil {
				// The request passed validation once; failing now means
				// the restarted server has stricter limits. The job
				// cannot run, and that is a terminal fact worth
				// journaling.
				jerr := fmt.Errorf("re-queue after restart: %v", err)
				j := s.restoreTerminal(h, JobFailed, jerr, jerr)
				s.journalSynthesizedRows(j, h)
				s.journal(store.Record{Kind: store.KindFinished, Job: j.id,
					Finished: &store.FinishedRecord{State: string(JobFailed), Error: j.err.Error()}})
				s.compact(j.id)
				sealRestored(j, h)
				continue
			}
			j := &job{
				id:        h.ID,
				name:      spec.name,
				scenarios: len(spec.scenarios),
				spec:      spec,
				raw:       h.Request,
				state:     JobQueued,
				submitted: h.SubmittedAt,
				// The journaled trace identity is readopted; the root
				// span id is fresh because a queued job never recorded
				// any span that could reference the old one.
				traceID:    h.TraceID,
				parentSpan: h.ParentSpan,
				rootSpan:   obs.NewSpanID(),
				events:     stream.NewBroadcaster(s.opts.ReplayBuffer),
			}
			j.ctx, j.cancel = context.WithCancel(s.baseCtx)
			s.jobs.restore(j)
			requeue = append(requeue, j)
			s.log.Info("job re-queued after restart", "job_id", j.id, "trace_id", j.traceID, "scenarios", j.scenarios)
		case string(JobRunning):
			reason := fmt.Errorf("interrupted: daemon restarted mid-run")
			j := s.restoreTerminal(h, JobInterrupted, reason, reason)
			s.journalSynthesizedRows(j, h)
			s.journal(store.Record{Kind: store.KindInterrupted, Job: j.id,
				Interrupted: &store.InterruptedRecord{Reason: reason.Error()}})
			s.compact(j.id)
			sealRestored(j, h)
			s.log.Info("job interrupted by restart", "job_id", j.id, "trace_id", j.traceID,
				"preserved_rows", len(h.Rows), "scenarios", h.Scenarios)
		default:
			var err error
			if h.Error != "" {
				err = errors.New(h.Error)
			}
			// A cleanly-finished job journaled every row, so the
			// placeholder reason is only a safety net.
			j := s.restoreTerminal(h, JobState(h.State), err,
				fmt.Errorf("not started: %s", h.State))
			sealRestored(j, h)
		}
	}
	return requeue
}

// restoreTerminal rebuilds one terminal job from its history: status,
// result rows (journaled ones, with scenarios the journal has no
// outcome for marked with rowReason), and the seeded event replay
// ring.
func (s *Server) restoreTerminal(h *store.JobHistory, state JobState, jerr, rowReason error) *job {
	rows, completed, failed := s.restoredRows(h, rowReason)
	j := &job{
		id:          h.ID,
		name:        h.Name,
		scenarios:   h.Scenarios,
		raw:         h.Request,
		state:       state,
		err:         jerr,
		completed:   completed,
		failed:      failed,
		submitted:   h.SubmittedAt,
		started:     h.StartedAt,
		finished:    h.FinishedAt,
		traceID:     h.TraceID,
		parentSpan:  h.ParentSpan,
		spans:       append([]obs.Span(nil), h.Spans...),
		rows:        rows,
		wallMS:      h.WallMS,
		parallelism: h.Parallelism,
		events:      stream.NewBroadcaster(s.opts.ReplayBuffer),
	}
	if j.finished.IsZero() {
		j.finished = time.Now()
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.cancel() // terminal: nothing to cancel
	s.jobs.restore(j)
	return j
}

// sealRestored seeds a restored job's replay ring from its (by now
// fully journaled) record history and closes the stream. Called after
// any recovery-synthesized records are appended, so the replayed
// stream is the same however many restarts the history has been
// through.
func sealRestored(j *job, h *store.JobHistory) {
	j.events.Seed(replayEvents(h), 0)
	j.events.Close()
}

// journalSynthesizedRows journals the rows restoreTerminal synthesized
// for scenarios the history had no outcome for — a further restart
// then restores the same bytes instead of re-synthesizing them with a
// different reason.
func (s *Server) journalSynthesizedRows(j *job, h *store.JobHistory) {
	for i := range j.rows {
		if _, ok := h.Rows[i]; !ok {
			s.journal(store.Record{Kind: store.KindRow, Job: j.id,
				Row: &store.RowRecord{Index: i, Row: j.rows[i]}})
		}
	}
}

// restoredRows assembles a restored job's full scenario-order row set
// from its journaled rows, synthesizing a reason-carrying error row
// for every scenario the journal has no outcome for (it never
// finished before the crash). Counters mirror the live path:
// completed counts journaled rows, failed the errored ones among them.
func (s *Server) restoredRows(h *store.JobHistory, reason error) (rows []export.Row, completed, failed int) {
	roster := rosterForHistory(h)
	rows = make([]export.Row, h.Scenarios)
	for i := range rows {
		if rr, ok := h.Rows[i]; ok {
			rows[i] = rr.Row
			completed++
			if rr.Row.Error != "" {
				failed++
			}
			continue
		}
		sc := darco.Scenario{Name: fmt.Sprintf("scenario-%d", i)}
		if i < len(roster) {
			sc = roster[i]
		}
		rows[i] = export.NewRow(&darco.ScenarioResult{Scenario: sc, Err: reason})
	}
	return rows, completed, failed
}

// rosterForHistory re-derives the scenario roster from the journaled
// submission, for labeling synthesized rows. Best effort: a roster
// that no longer parses yields nil and the rows fall back to indexed
// placeholders.
func rosterForHistory(h *store.JobHistory) []darco.Scenario {
	req, err := ParseSubmit(bytes.NewReader(h.Request))
	if err != nil {
		return nil
	}
	roster, err := req.Roster()
	if err != nil {
		return nil
	}
	return roster
}

// replayEvents rebuilds a restored job's event-stream history from its
// journal records, in append order, shaped exactly like the frames the
// live run published.
func replayEvents(h *store.JobHistory) []stream.Event {
	var evs []stream.Event
	for i := range h.Records {
		rec := &h.Records[i]
		switch rec.Kind {
		case store.KindRow:
			if rec.Row == nil {
				continue
			}
			evs = append(evs, stream.Event{Kind: EventScenario, Data: ScenarioEvent{
				Job:   h.ID,
				Index: rec.Row.Index,
				Row:   export.StripWallRow(rec.Row.Row),
			}})
		case store.KindTelemetry:
			if rec.Telemetry == nil {
				continue
			}
			evs = append(evs, stream.Event{Kind: EventTelemetry, Data: TelemetryEvent{
				Job:      h.ID,
				Index:    rec.Telemetry.Index,
				Scenario: rec.Telemetry.Scenario,
				Window:   rec.Telemetry.Window,
			}})
		}
	}
	return evs
}

var (
	errQueueFull = fmt.Errorf("job queue is full")
	errClosing   = fmt.Errorf("server is shutting down")
)

// submit enqueues a validated job, reporting queue-full and
// shutting-down conditions distinctly. The status it returns is the
// job's at acceptance, snapshotted before the job reaches the queue:
// once it is there an idle worker may start it at any moment, and the
// 202 must still say what the submission got — a queue slot.
func (s *Server) submit(spec *jobSpec, raw []byte, traceID, parentSpan string) (JobStatus, error) {
	j := &job{
		name:       spec.name,
		scenarios:  len(spec.scenarios),
		spec:       spec,
		raw:        raw,
		state:      JobQueued,
		submitted:  time.Now(),
		traceID:    traceID,
		parentSpan: parentSpan,
		rootSpan:   obs.NewSpanID(),
		events:     stream.NewBroadcaster(s.opts.ReplayBuffer),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return JobStatus{}, errClosing
	}
	// Capacity is checked before the job becomes visible: a rejected
	// submission leaves no trace (the client owns the retry) and ids
	// stay sequential in accepted-submission order. The check is
	// against the configured capacity, not the channel's — a channel
	// widened for a restored backlog must not raise the operator's
	// shed point for new submissions. The send cannot block — s.mu
	// serializes all senders, the channel is at least the configured
	// capacity, and the depth was just checked; workers only receive.
	if len(s.queue) >= s.opts.QueueCapacity {
		return JobStatus{}, errQueueFull
	}
	// The cancellable context is derived only for accepted jobs — a
	// child of baseCtx stays registered there until cancelled, so
	// rejected submissions must not create one (a client retry-looping
	// against a full queue would leak a context per attempt).
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	s.jobs.add(j)
	// Journaled before the worker can pop it: a daemon that dies right
	// here re-queues the job instead of forgetting the accepted 202.
	s.journal(store.Record{Kind: store.KindSubmitted, Job: j.id, Time: j.submitted,
		Submitted: &store.SubmittedRecord{Name: j.name, Scenarios: j.scenarios, Request: raw,
			TraceID: j.traceID, ParentSpan: j.parentSpan}})
	accepted := j.status()
	s.queue <- j
	return accepted, nil
}

// runJob executes one campaign job to a terminal state.
func (s *Server) runJob(j *job) {
	// Release the job's context registration in baseCtx once terminal;
	// a long-running daemon would otherwise pin one child context per
	// job ever run. The cancel endpoint's extra calls are no-ops.
	defer j.cancel()
	// A job cancelled (or a server stopping) while queued never starts.
	if err := j.ctx.Err(); err != nil {
		if j.markCancelled(fmt.Errorf("cancelled while queued: %w", err)) {
			j.mu.Lock()
			j.rows = make([]export.Row, 0, len(j.spec.scenarios))
			for _, sc := range j.spec.scenarios {
				j.rows = append(j.rows, export.NewRow(&darco.ScenarioResult{Scenario: sc, Err: j.err}))
			}
			// Counters mirror the mid-run cancel path, where the
			// campaign's done hook counts never-started scenarios as
			// completed-with-error — and what a restore would count
			// from the journaled rows.
			j.completed = len(j.rows)
			j.failed = len(j.rows)
			rows := j.rows
			j.mu.Unlock()
			// Synthesized rows are journaled and published like
			// campaign-produced ones, so both a restart and a live
			// stream subscriber see the same outcome rows.
			for i := range rows {
				s.journal(store.Record{Kind: store.KindRow, Job: j.id,
					Row: &store.RowRecord{Index: i, Row: rows[i]}})
				j.events.Publish(EventScenario, ScenarioEvent{
					Job:   j.id,
					Index: i,
					Row:   export.StripWallRow(rows[i]),
				})
			}
			j.events.PublishTransient(EventState, s.finishJob(j))
		}
		j.events.Close()
		return
	}
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	started := j.started
	waited := started.Sub(j.submitted)
	j.mu.Unlock()
	s.metrics.queueWait.Observe(waited.Seconds())
	s.startSpans(j, started)
	s.log.Info("job running", "job_id", j.id, "trace_id", j.traceID,
		"scenarios", len(j.spec.scenarios), "parallelism", j.spec.parallelism)
	s.journal(store.Record{Kind: store.KindStarted, Job: j.id, Time: started})
	j.events.PublishTransient(EventState, j.status())

	copts := []darco.CampaignOption{
		darco.WithParallelism(j.spec.parallelism),
		darco.WithScenarioDone(s.scenarioDone(j)),
	}
	if j.spec.scenarioTimeout > 0 {
		copts = append(copts, darco.WithScenarioTimeout(j.spec.scenarioTimeout))
	}
	if j.spec.failFast {
		copts = append(copts, darco.WithFailFast())
	}
	var winds *windowers
	if !j.spec.telemetryOff {
		winds = newWindowers(s, j)
		copts = append(copts,
			darco.WithScenarioSession(winds.attach),
			darco.WithScenarioDone(winds.flush))
	}

	rep, err := j.spec.eng.RunCampaign(j.ctx, j.spec.scenarios, copts...)

	j.mu.Lock()
	j.rows = export.Rows(rep, export.WithWallTimes())
	j.wallMS = float64(rep.Wall.Nanoseconds()) / 1e6
	j.parallelism = rep.Parallelism
	j.finished = time.Now()
	switch {
	case err != nil:
		// Only the job context cuts a campaign short: a cancel request
		// or server shutdown.
		j.state = JobCancelled
		j.err = err
	case rep.Err() != nil:
		j.state = JobFailed
		j.err = rep.Err()
	default:
		j.state = JobDone
	}
	j.mu.Unlock()
	st := s.finishJob(j)
	s.log.Info("job finished", "job_id", j.id, "trace_id", j.traceID, "state", string(st.State),
		"completed", st.Completed, "scenarios", st.Scenarios, "failed", st.Failed)
	j.events.PublishTransient(EventState, st)
	j.events.Close()
}

// finishJob records the job's closing spans, journals its terminal
// record, compacts its history into a snapshot, and returns the final
// status.
func (s *Server) finishJob(j *job) JobStatus {
	s.finishSpans(j)
	j.mu.Lock()
	fin := &store.FinishedRecord{
		State:       string(j.state),
		WallMS:      j.wallMS,
		Parallelism: j.parallelism,
	}
	if j.err != nil {
		fin.Error = j.err.Error()
	}
	when := j.finished
	j.mu.Unlock()
	s.journal(store.Record{Kind: store.KindFinished, Job: j.id, Time: when, Finished: fin})
	s.compact(j.id)
	return j.status()
}

// scenarioDone builds the job's scenario-completion hook: progress
// counters, the journaled wall-inclusive row, and a live export.Row
// frame. RunCampaign serializes scenario-done callbacks, so the
// counter updates need only the job lock.
func (s *Server) scenarioDone(j *job) func(i int, sr *darco.ScenarioResult) {
	return func(i int, sr *darco.ScenarioResult) {
		j.mu.Lock()
		j.completed++
		if sr.Err != nil {
			j.failed++
		}
		j.mu.Unlock()
		s.metrics.scenarioWall.Observe(sr.Wall.Seconds())
		s.scenarioSpans(j, sr, time.Now())
		row := export.NewRow(sr, export.WithWallTimes())
		s.journal(store.Record{Kind: store.KindRow, Job: j.id,
			Row: &store.RowRecord{Index: i, Row: row}})
		j.events.Publish(EventScenario, ScenarioEvent{
			Job:   j.id,
			Index: i,
			Row:   export.StripWallRow(row),
		})
	}
}

// windowers owns one job's per-scenario telemetry state: a
// darco/telemetry windower per in-flight session, attached through the
// campaign's session hook and flushed from its scenario-done hook.
// Session hooks run concurrently on the campaign's worker goroutines,
// so the map is locked; each windower itself stays single-goroutine
// (its scenario's session goroutine, which is also the goroutine its
// scenario-done callback runs on).
type windowers struct {
	s  *Server
	j  *job
	mu sync.Mutex
	m  map[int]*telemetry.Windower
}

func newWindowers(s *Server, j *job) *windowers {
	return &windowers{s: s, j: j, m: make(map[int]*telemetry.Windower)}
}

// attach is the darco.WithScenarioSession hook.
func (ws *windowers) attach(i int, sc *darco.Scenario, sess *darco.Session) {
	name := sc.Name
	if name == "" {
		name = sc.Profile.Name
	}
	wd := telemetry.NewWindower(ws.j.spec.telemetryInterval, func(w telemetry.Window) {
		ws.s.journal(store.Record{Kind: store.KindTelemetry, Job: ws.j.id,
			Telemetry: &store.TelemetryRecord{Index: i, Scenario: name, Window: w}})
		ws.j.events.Publish(EventTelemetry, TelemetryEvent{
			Job:      ws.j.id,
			Index:    i,
			Scenario: name,
			Window:   w,
		})
	})
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
