package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	darco "darco"
	"darco/export"
	"darco/internal/stream"
	"darco/internal/workload"
	"darco/obs"
	"darco/store"
)

// apiError is the JSON error envelope every non-2xx response carries.
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

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/export.json", s.handleExport("json"))
	mux.HandleFunc("GET /api/v1/jobs/{id}/export.csv", s.handleExport("csv"))
	mux.HandleFunc("GET /api/v1/jobs/{id}/export.ndjson", s.handleExport("ndjson"))
	mux.HandleFunc("GET /api/v1/jobs/{id}/export.html", s.handleExport("html"))
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /api/v1/profiles", s.handleProfiles)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// maxSubmitBytes bounds a submission body: load must shed at the edge
// before a request is buffered, not after MaxScenarios is parsed.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The body is buffered whole before parsing: the raw bytes are the
	// submission's durable representation — journaled with the job and
	// replayed through this same validator after a restart.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	var spec *jobSpec
	if err == nil {
		spec, err = s.decodeSubmit(bytes.NewReader(raw))
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
	// Adopt the caller's trace context (a coordinator submitting a
	// shard stamps X-Darco-Trace) or start a fresh trace for this job.
	traceID, parentSpan, ok := obs.ExtractTrace(r.Header)
	if !ok {
		traceID = obs.NewTraceID()
	}
	accepted, err := s.submit(spec, raw, traceID, parentSpan)
	switch {
	case errors.Is(err, errQueueFull):
		// Backpressure: the queue is bounded so load sheds at the
		// edge; clients retry with the advertised delay.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, errClosing):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+accepted.ID)
	writeJSON(w, http.StatusAccepted, accepted)
}

// handleList serves the job listing in submission order. ?state=
// filters it to the named lifecycle states (comma-separated, e.g.
// ?state=interrupted or ?state=queued,running) — the first slice of
// the job-query API, and what the sched coordinator uses to find a
// restarted worker's interrupted shards. Unknown states are a 400 so
// a typo cannot read as "no matches".
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter, err := ParseStateFilter(r.URL.Query().Get("state"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs := s.jobs.list()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		if st := j.status(); filter.Match(st.State) {
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// StateFilter is a parsed ?state= job-list filter; the zero value
// matches every state.
type StateFilter struct {
	states map[JobState]bool
}

// knownStates are the values ?state= accepts. The coordinator-only
// "degraded" state is included so one filter grammar serves both
// daemons' listings.
var knownStates = map[JobState]bool{
	JobQueued: true, JobRunning: true, JobDone: true,
	JobFailed: true, JobCancelled: true, JobInterrupted: true,
	JobState("degraded"): true,
}

// ParseStateFilter parses a comma-separated ?state= value. Empty
// matches everything; unknown names are an error.
func ParseStateFilter(q string) (StateFilter, error) {
	if q == "" {
		return StateFilter{}, nil
	}
	f := StateFilter{states: make(map[JobState]bool)}
	for _, name := range strings.Split(q, ",") {
		st := JobState(strings.TrimSpace(name))
		if !knownStates[st] {
			return StateFilter{}, fmt.Errorf("unknown state %q in ?state=", st)
		}
		f.states[st] = true
	}
	return f, nil
}

// Match reports whether the filter admits st.
func (f StateFilter) Match(st JobState) bool {
	return f.states == nil || f.states[st]
}

// lookup resolves the {id} path value, writing the 404 itself when the
// job does not exist.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleCancel stops a queued or running job. Cancelling is
// asynchronous — the response reports the state observed after the
// cancel was issued, which may still be "running" until the campaign
// observes its context (within one engine check interval) — and
// idempotent: cancelling a terminal job changes nothing.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !j.status().State.Terminal() {
		// Journaled before the cancel takes effect: if the daemon dies
		// before the job observes its context (it may still be deep in
		// the queue), the restarted daemon must not re-run a job the
		// client already cancelled.
		s.journal(store.Record{Kind: store.KindCancelRequested, Job: j.id})
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

// handleExport renders a terminal job's stored scenario rows in the
// requested format, with darco/export's deterministic defaults:
// export.json and export.csv bytes for a completed job match an
// offline export of the same scenarios, and a job restored from the
// durable store serves the same bytes the pre-restart daemon would
// have. ?wall=1 opts into wall-clock metrics (served from the stored
// wall-inclusive rows).
func (s *Server) handleExport(format string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.lookup(w, r)
		if !ok {
			return
		}
		rows, wallMS, parallelism, err := j.resultRows()
		if err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		if err := WriteExport(w, r, format, rows, wallMS, parallelism); err != nil {
			// Headers are gone; all we can do is drop the connection.
			s.log.Error("export write failed", "format", format, "job_id", j.id, "err", err)
		}
	}
}

// WriteExport renders a job's stored wall-inclusive rows in one of the
// four export formats ("json", "csv", "ndjson", "html") with the
// service's semantics: deterministic darco/export defaults unless the
// request carries ?wall=1, which opts into the wall-clock columns plus
// the campaign-level wall/parallelism fields in the JSON document.
// Shared with the sched coordinator so a federated job's exports go
// through exactly the renderer a single daemon uses.
func WriteExport(w http.ResponseWriter, r *http.Request, format string, rows []export.Row, wallMS float64, parallelism int) error {
	var opts []export.Option
	if r.URL.Query().Get("wall") == "1" {
		opts = append(opts, export.WithWallTimes())
	} else {
		rows = export.StripWall(rows)
	}
	switch format {
	case "json":
		doc := export.NewRowReport(rows)
		if len(opts) > 0 {
			doc.WallMS = wallMS
			doc.Workers = parallelism
		}
		w.Header().Set("Content-Type", "application/json")
		return export.WriteReport(w, doc)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		return export.WriteCSVRows(w, rows, opts...)
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		return export.WriteNDJSONRows(w, rows)
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		return export.WriteHTMLRows(w, rows, opts...)
	}
	return fmt.Errorf("unknown export format %q", format)
}

// handleEvents streams a job's frames as SSE (default) or NDJSON
// (?format=ndjson). The stream opens with a state snapshot, then the
// replayed prefix of frames the subscriber missed (bounded by the
// replay ring — a ring that no longer reaches the start is announced
// with an EventDropped marker), then live scenario/telemetry/state
// frames while the job runs, ending with a final state frame once the
// job is terminal.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	stream.ServeStream(w, r, j.events, EventState, func() any { return j.status() })
}

// ProfileInfo describes one submittable workload.
type ProfileInfo struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	var out []ProfileInfo
	for _, p := range workload.Suites() {
		out = append(out, ProfileInfo{Name: p.Name, Suite: p.Suite})
	}
	writeJSON(w, http.StatusOK, out)
}

// Health is the /healthz payload. Version and WorkerID identify the
// build and the pool member — the sched coordinator's health probes
// read them to label workers, and Status is what its placement checks.
type Health struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	WorkerID      string  `json:"worker_id"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Jobs          int     `json:"jobs"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:        "ok",
		Version:       darco.Version,
		WorkerID:      s.opts.WorkerID,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.opts.Workers,
		QueueDepth:    len(s.queue),
		QueueCapacity: s.opts.QueueCapacity,
		Jobs:          len(s.jobs.list()),
	})
}

// handleMetrics serves the daemon's obs.Registry as Prometheus text
// exposition: jobs by state, queue pressure, scenario throughput,
// stream fan-out, queue-wait/scenario-wall/store-latency histograms,
// and the engine hot-path counters of obs-enabled jobs. State families
// are recomputed from the job registry at scrape time (see
// serverMetrics), so a restored daemon scrapes correctly from its
// first request.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.metrics.reg.WritePrometheus(w)
}
