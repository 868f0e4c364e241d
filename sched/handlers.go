package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	darco "darco"
	"darco/export"
	"darco/internal/stream"
	"darco/obs"
	"darco/serve"
	"darco/store"
)

// apiError is the JSON error envelope every non-2xx response carries —
// the same shape the worker daemon uses.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := export.EncodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (c *Coordinator) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", c.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", c.handleStatus)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", c.handleCancel)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", c.handleTrace)
	mux.HandleFunc("GET /api/v1/jobs/{id}/export.json", c.handleExport("json"))
	mux.HandleFunc("GET /api/v1/jobs/{id}/export.csv", c.handleExport("csv"))
	mux.HandleFunc("GET /api/v1/jobs/{id}/export.ndjson", c.handleExport("ndjson"))
	mux.HandleFunc("GET /api/v1/jobs/{id}/export.html", c.handleExport("html"))
	mux.HandleFunc("GET /api/v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /api/v1/workers", c.handleRegisterWorker)
	mux.HandleFunc("DELETE /api/v1/workers/{id}", c.handleDeregisterWorker)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// maxSubmitBytes mirrors the worker daemon's submission-size bound.
const maxSubmitBytes = 1 << 20

// handleSubmit validates a campaign submission at the coordinator's
// edge — same SubmitRequest schema, same roster expansion, same engine
// validation a worker performs — then queues it for sharding. A bad
// submission never reaches a worker.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The body is buffered whole before parsing: the raw bytes are the
	// submission's durable representation — journaled with the job and
	// replayed through this same validator after a restart.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	var req *serve.SubmitRequest
	if err == nil {
		req, err = serve.ParseSubmit(bytes.NewReader(raw))
	}
	if err == nil {
		err = req.Telemetry.Validate()
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "%v", err)
		return
	}
	roster, err := req.Roster()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if limit := c.opts.MaxScenarios; limit > 0 && len(roster) > limit {
		writeError(w, http.StatusBadRequest, "%d scenarios exceed the coordinator limit of %d", len(roster), limit)
		return
	}
	if req.Parallelism < 0 {
		writeError(w, http.StatusBadRequest, "parallelism %d is negative", req.Parallelism)
		return
	}
	if req.ScenarioTimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "scenario_timeout_ms %d is negative", req.ScenarioTimeoutMS)
		return
	}
	// Validate the engine configuration here so a misconfigured sweep
	// fails the submit, not every shard placement.
	opts, err := req.Engine.Options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := darco.NewEngine(opts...); err != nil {
		writeError(w, http.StatusBadRequest, "engine configuration: %v", err)
		return
	}

	j := newJob(req, roster, c.baseCtx, c.opts.ReplayBuffer)
	j.raw = raw
	j.journal = c.journal
	// Adopt the caller's trace context (another coordinator, a CI
	// harness) or start a fresh federated trace here at the edge.
	traceID, parentSpan, ok := obs.ExtractTrace(r.Header)
	if !ok {
		traceID = obs.NewTraceID()
	}
	j.traceID, j.parentSpan, j.rootSpan = traceID, parentSpan, obs.NewSpanID()
	c.jobs.add(j)
	accepted, err := c.enqueue(j)
	if err != nil {
		j.cancel()
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		} else {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	c.log.Info("job accepted", "job_id", j.id, "trace_id", j.traceID, "scenarios", len(roster))
	w.Header().Set("Location", "/api/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, accepted)
}

// handleList serves the federated job listing in submission order,
// with the same ?state= grammar as the worker daemon (including the
// coordinator-only "degraded").
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	filter, err := serve.ParseStateFilter(r.URL.Query().Get("state"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs := c.jobs.list()
	out := make([]serve.JobStatus, 0, len(jobs))
	for _, j := range jobs {
		if st := j.status(); filter.Match(st.State) {
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (c *Coordinator) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := c.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil, false
	}
	return j, true
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := c.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleCancel stops a federated job: its context cancels every shard
// gatherer, and the job runner then cancels the worker-side shard jobs
// best-effort. Asynchronous and idempotent, like the worker daemon's.
func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookup(w, r)
	if !ok {
		return
	}
	// The request is journaled before the context cancels: a
	// coordinator that dies in between must not re-queue a job its
	// client already cancelled. cancelRequested also distinguishes this
	// client cancel from the coordinator's own shutdown for a job still
	// in the queue.
	j.mu.Lock()
	first := !j.cancelRequested && !terminal(j.state)
	j.cancelRequested = true
	j.mu.Unlock()
	if first {
		c.journal(store.Record{Kind: store.KindCancelRequested, Job: j.id})
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

// handleExport renders the merged federated rows through the same
// renderer a worker daemon uses, so the default views are
// byte-identical to a single-node run of the same submission. Under
// ?wall=1 the campaign-level wall is the coordinator's measured wall
// and "parallelism" is the shard count; per-row wall columns are zero
// (workers stream wall-stripped rows — per-row wall would not survive
// re-dispatch deterministically anyway).
func (c *Coordinator) handleExport(format string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := c.lookup(w, r)
		if !ok {
			return
		}
		rows, wallMS, shards, err := j.resultRows()
		if err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		if err := serve.WriteExport(w, r, format, rows, wallMS, shards); err != nil {
			c.log.Error("export write failed", "format", format, "job_id", j.id, "err", err)
		}
	}
}

// handleEvents streams the federated job's re-multiplexed frames —
// scenario rows and telemetry windows gathered from every shard,
// re-indexed to global scenario positions — as SSE or NDJSON, with the
// same replay/loss-marker semantics as a worker's stream.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookup(w, r)
	if !ok {
		return
	}
	stream.ServeStream(w, r, j.events, serve.EventState, func() any { return j.status() })
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	workers := c.pool.list()
	out := make([]WorkerInfo, 0, len(workers))
	for _, wk := range workers {
		out = append(out, wk.info())
	}
	writeJSON(w, http.StatusOK, out)
}

// registerRequest is the POST /api/v1/workers body.
type registerRequest struct {
	URL string `json:"url"`
}

// handleRegisterWorker adds a worker to the pool at runtime and probes
// it immediately, so a freshly started daemon can self-register and be
// schedulable in one round trip. Re-registering an existing URL just
// re-probes it.
func (c *Coordinator) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if req.URL == "" {
		writeError(w, http.StatusBadRequest, "missing \"url\"")
		return
	}
	wk, fresh, err := c.pool.add(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.probe(c.baseCtx, wk)
	if fresh {
		c.log.Info("worker registered", "worker", wk.url)
		writeJSON(w, http.StatusCreated, wk.info())
		return
	}
	writeJSON(w, http.StatusOK, wk.info())
}

// handleDeregisterWorker removes a pool member by worker_id, full URL,
// or URL host:port. Shards already gathering from it run to completion
// on their own references; the worker is simply never placed again.
func (c *Coordinator) handleDeregisterWorker(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	wk, ok := c.pool.remove(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no such worker %q", key)
		return
	}
	c.log.Info("worker deregistered", "worker", wk.url)
	writeJSON(w, http.StatusOK, wk.info())
}

// Health is the coordinator's /healthz payload: liveness plus a pool
// summary. WorkerID follows the worker daemon's convention so fleet
// tooling can treat every darco daemon uniformly.
type Health struct {
	Status         string  `json:"status"`
	Version        string  `json:"version"`
	WorkerID       string  `json:"worker_id"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	WorkersTotal   int     `json:"workers_total"`
	WorkersHealthy int     `json:"workers_healthy"`
	QueueDepth     int     `json:"queue_depth"`
	QueueCapacity  int     `json:"queue_capacity"`
	Jobs           int     `json:"jobs"`
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:         "ok",
		Version:        darco.Version,
		WorkerID:       c.id,
		UptimeSeconds:  time.Since(c.start).Seconds(),
		WorkersTotal:   len(c.pool.list()),
		WorkersHealthy: c.pool.healthyCount(),
		QueueDepth:     len(c.queue),
		QueueCapacity:  c.opts.QueueCapacity,
		Jobs:           len(c.jobs.list()),
	})
}

// handleMetrics serves the coordinator's registry: federated jobs by
// state (including degraded), queue pressure, recovery counters,
// per-worker placement/gather/retry/rejection series keyed by worker
// URL, and the scheduling-latency histograms. State and per-worker
// families recompute on scrape (see metrics.go).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	c.metrics.reg.WritePrometheus(w)
}
