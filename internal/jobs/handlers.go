package jobs

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"darco/export"
	"darco/internal/stream"
	"darco/obs"
	"darco/store"
)

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// WriteJSON writes v as an indented JSON response and WriteError the
// error envelope — exported for the routes a daemon serves beside the
// kernel's.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	data, err := export.EncodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (k *Kernel) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", k.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", k.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", k.handleStatus)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", k.handleCancel)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", k.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", k.handleEvents)
	for _, format := range []string{"json", "csv", "ndjson", "html"} {
		mux.HandleFunc("GET /api/v1/jobs/{id}/export."+format, k.handleExport(format))
	}
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", k.handleTrace)
	mux.HandleFunc("GET /metrics", k.handleMetrics)
	return mux
}

// maxSubmitBytes bounds a submission body: load must shed at the edge
// before a request is buffered, not after its roster is parsed.
const maxSubmitBytes = 1 << 20

func (k *Kernel) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The body is buffered whole before parsing: the raw bytes are the
	// submission's durable representation — journaled with the job and
	// replayed through this same validator after a restart.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	var plan *Plan
	if err == nil {
		plan, err = k.cfg.Runner.Validate(raw, false)
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		WriteError(w, code, "%v", err)
		return
	}
	// Adopt the caller's trace context (a coordinator submitting a
	// shard stamps X-Darco-Trace) or start a fresh trace for this job.
	traceID, parentSpan, ok := obs.ExtractTrace(r.Header)
	if !ok {
		traceID = obs.NewTraceID()
	}
	accepted, err := k.submit(plan, raw, traceID, parentSpan)
	switch {
	case errors.Is(err, errQueueFull):
		// Backpressure: the queue is bounded so load sheds at the
		// edge; clients retry with the advertised delay.
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	k.log.Info("job accepted", "job_id", accepted.ID, "trace_id", traceID, "scenarios", accepted.Scenarios)
	w.Header().Set("Location", "/api/v1/jobs/"+accepted.ID)
	WriteJSON(w, http.StatusAccepted, accepted)
}

// handleList serves the job listing in submission order. ?state=
// filters it to the named lifecycle states (comma-separated, e.g.
// ?state=interrupted or ?state=queued,running) — what the coordinator
// uses to find a restarted worker's interrupted shards. Unknown states
// are a 400 so a typo cannot read as "no matches".
func (k *Kernel) handleList(w http.ResponseWriter, r *http.Request) {
	var filter map[JobState]bool
	if q := r.URL.Query().Get("state"); q != "" {
		filter = make(map[JobState]bool)
		for _, name := range strings.Split(q, ",") {
			st := JobState(strings.TrimSpace(name))
			if !slices.Contains(States, st) {
				WriteError(w, http.StatusBadRequest, "unknown state %q in ?state=", st)
				return
			}
			filter[st] = true
		}
	}
	jobs := k.jobs.list()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		if st := j.Status(); filter == nil || filter[st.State] {
			out = append(out, st)
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// Lookup resolves the {id} path value, writing the 404 itself when the
// job does not exist.
func (k *Kernel) Lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := k.jobs.get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job %q", id)
	}
	return j, ok
}

func (k *Kernel) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := k.Lookup(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Status())
	}
}

// handleCancel stops a queued or running job. Cancelling is
// asynchronous — the response reports the state observed after the
// cancel was issued, which may still be "running" until the Runner
// observes its context — and idempotent: cancelling a terminal job
// changes nothing.
func (k *Kernel) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := k.Lookup(w, r)
	if !ok {
		return
	}
	// The request is journaled, once, before the context cancels: a
	// daemon that dies before the job observes it (it may still be deep
	// in the queue) must not re-run a job its client already cancelled.
	j.mu.Lock()
	first := !j.cancelRequested && !j.settled && !j.state.Terminal()
	j.cancelRequested = true
	j.mu.Unlock()
	if first {
		k.Journal(store.Record{Kind: store.KindCancelRequested, Job: j.ID})
	}
	j.cancel()
	WriteJSON(w, http.StatusOK, j.Status())
}

// handleExport renders a terminal job's stored scenario rows in the
// requested format with darco/export's deterministic defaults:
// export.json and export.csv bytes for a completed job match an
// offline export of the same scenarios, a federated job's match a
// single-node run's, and a job restored from the durable store serves
// the bytes the pre-restart daemon would have. ?wall=1 opts into the
// wall-clock columns (served from the stored wall-inclusive rows) plus
// the campaign-level wall/parallelism fields in the JSON document.
func (k *Kernel) handleExport(format string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := k.Lookup(w, r)
		if !ok {
			return
		}
		rows, wallMS, parallelism, err := j.resultRows()
		if err != nil {
			WriteError(w, http.StatusConflict, "%v", err)
			return
		}
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
			err = export.WriteReport(w, doc)
		case "csv":
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			err = export.WriteCSVRows(w, rows, opts...)
		case "ndjson":
			w.Header().Set("Content-Type", "application/x-ndjson")
			err = export.WriteNDJSONRows(w, rows)
		case "html":
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			err = export.WriteHTMLRows(w, rows, opts...)
		}
		if err != nil {
			// Headers are gone; all we can do is drop the connection.
			k.log.Error("export write failed", "format", format, "job_id", j.ID, "err", err)
		}
	}
}

// handleEvents streams a job's frames as SSE (default) or NDJSON
// (?format=ndjson). The stream opens with a state snapshot, then the
// replayed prefix of frames the subscriber missed (bounded by the
// replay ring — a ring that no longer reaches the start is announced
// with an EventDropped marker), then live scenario/telemetry/state
// frames while the job runs, ending with a final state frame once the
// job is terminal.
func (k *Kernel) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := k.Lookup(w, r); ok {
		stream.ServeStream(w, r, j.events, EventState, func() any { return j.Status() })
	}
}
