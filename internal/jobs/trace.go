package jobs

import (
	"net/http"

	"darco/obs"
	"darco/store"
)

// Every job carries one trace. The kernel records the spans the
// lifecycle itself pins down — queue-wait at worker pickup, run and the
// job root at the terminal transition — and the Runner records what
// happens inside the run (scenarios and their phases, shards) through
// RecordSpan, parented on RunSpan.

// RecordSpan appends one finished span to the job's trace and journals
// it, so the trace survives a daemon restart alongside the rest of the
// job's history. Spans inside it that are totals rather than events of
// their own (children) ride in its journal record.
func (j *Job) RecordSpan(sp obs.Span, children ...obs.Span) {
	j.mu.Lock()
	j.spans = append(append(j.spans, sp), children...)
	j.mu.Unlock()
	j.k.Journal(store.Record{Kind: store.KindSpan, Job: j.ID, Span: &store.SpanRecord{Span: sp, Children: children}})
}

// RunSpan is the id of the current run span — the parent of every span
// a Runner records — fixed at worker pickup, before the span itself is
// recorded at finish.
func (j *Job) RunSpan() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.runSpan
}

// Spans snapshots the job's recorded spans.
func (j *Job) Spans() []obs.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]obs.Span(nil), j.spans...)
}

// finishSpans records the spans only the terminal transition e can
// close: the run span (worker pickup to completion) and the job root
// span. A job cancelled while queued never ran, so it gets only the root.
func (k *Kernel) finishSpans(j *Job, e ending) {
	j.mu.Lock()
	run, submitted, started := j.runSpan, j.submitted, j.started
	j.mu.Unlock()
	state, finished := e.State, e.finished
	if run != "" {
		rs := obs.NewSpan(j.TraceID, j.rootSpan, "run", k.cfg.Service, started, finished)
		rs.SpanID = run
		j.RecordSpan(rs)
	}
	js := obs.NewSpan(j.TraceID, j.parentSpan, "job "+j.ID, k.cfg.Service, submitted, finished)
	js.SpanID = j.rootSpan
	js.SetAttr("job_id", j.ID)
	js.SetAttr("state", string(state))
	if j.Name != "" {
		js.SetAttr("name", j.Name)
	}
	j.RecordSpan(js)
}

// handleTrace serves a job's trace. The trace grows while the job runs
// — fetching early yields the spans closed so far.
func (k *Kernel) handleTrace(w http.ResponseWriter, r *http.Request) {
	if j, ok := k.Lookup(w, r); ok {
		k.WriteTrace(w, r, j, j.Spans())
	}
}

// WriteTrace renders spans as job j's trace: the flat span list plus
// the resolved tree (default JSON document), or the Chrome trace-event
// format Perfetto loads directly (?format=chrome). Exported for the
// coordinator, whose trace route stitches worker-side spans in first.
func (k *Kernel) WriteTrace(w http.ResponseWriter, r *http.Request, j *Job, spans []obs.Span) {
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteChromeTrace(w, spans); err != nil {
			k.log.Error("chrome trace write failed", "job_id", j.ID, "err", err)
		}
		return
	}
	WriteJSON(w, http.StatusOK, obs.TraceDoc{TraceID: j.TraceID, Job: j.ID, Spans: spans, Tree: obs.BuildTree(spans)})
}
