package sched

import (
	"encoding/json"
	"io"
	"net/http"

	darco "darco"
	"darco/internal/jobs"
)

// routes mounts what only a coordinator serves — the worker pool, its
// own /healthz, and the trace route that stitches worker spans in —
// over the kernel's job routes and /metrics.
func (c *Coordinator) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", c.handleStitchedTrace)
	mux.HandleFunc("GET /api/v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /api/v1/workers", c.handleRegisterWorker)
	mux.HandleFunc("DELETE /api/v1/workers/{id}", c.handleDeregisterWorker)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.Handle("/", c.k)
	return mux
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	workers := c.pool.list()
	out := make([]WorkerInfo, 0, len(workers))
	for _, wk := range workers {
		out = append(out, wk.info())
	}
	jobs.WriteJSON(w, http.StatusOK, out)
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
		jobs.WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if req.URL == "" {
		jobs.WriteError(w, http.StatusBadRequest, "missing \"url\"")
		return
	}
	wk, fresh, err := c.pool.add(req.URL)
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.probe(c.baseCtx, wk)
	if fresh {
		c.log.Info("worker registered", "worker", wk.url)
		jobs.WriteJSON(w, http.StatusCreated, wk.info())
		return
	}
	jobs.WriteJSON(w, http.StatusOK, wk.info())
}

// handleDeregisterWorker removes a pool member by worker_id, full URL,
// or URL host:port. Shards already gathering from it run to completion
// on their own references; the worker is simply never placed again.
func (c *Coordinator) handleDeregisterWorker(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	wk, ok := c.pool.remove(key)
	if !ok {
		jobs.WriteError(w, http.StatusNotFound, "no such worker %q", key)
		return
	}
	c.log.Info("worker deregistered", "worker", wk.url)
	jobs.WriteJSON(w, http.StatusOK, wk.info())
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
	jobs.WriteJSON(w, http.StatusOK, Health{
		Status:         "ok",
		Version:        darco.Version,
		WorkerID:       c.id,
		UptimeSeconds:  c.k.Uptime().Seconds(),
		WorkersTotal:   len(c.pool.list()),
		WorkersHealthy: c.pool.healthyCount(),
		QueueDepth:     c.k.QueueDepth(),
		QueueCapacity:  c.k.QueueCapacity(),
		Jobs:           c.k.JobCount(),
	})
}
