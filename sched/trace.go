package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"darco/obs"
)

// The coordinator's half of a federated trace. Every federated job
// carries one trace: the kernel records the job root, queue-wait and
// run spans, the coordinator one span per shard, and each shard
// submission is stamped with X-Darco-Trace (trace id + the shard's span
// id) so the worker-side job's spans land in the same trace, parented
// under the shard span. GET /api/v1/jobs/{id}/trace stitches both
// halves: the coordinator's own journaled spans plus the worker spans
// fetched live from every placement the job ever made.

// shardSpan closes one shard's span: the window this coordinator spent
// driving the shard, carrying its final placement and attempt count.
// The span id is the one every worker-side submission for the shard was
// parented under, so the worker job spans attach here in the stitched
// tree.
func (c *Coordinator) shardSpan(j *fedJob, sh *shard, start, end time.Time, err error) {
	sp := obs.NewSpan(j.TraceID, j.RunSpan(), fmt.Sprintf("shard %d", sh.idx), c.id, start, end)
	sp.SpanID = sh.span
	sp.SetAttr("scenarios", fmt.Sprintf("%d", len(sh.indices)))
	wurl, wid := sh.placement()
	if wurl != "" {
		sp.SetAttr("worker", wurl)
	}
	if wid != "" {
		sp.SetAttr("worker_job", wid)
	}
	sh.mu.Lock()
	attempts := sh.attempts
	sh.mu.Unlock()
	sp.SetAttr("attempts", fmt.Sprintf("%d", attempts))
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	j.RecordSpan(sp)
}

// placementRef is one worker-side job the federated job ever placed —
// the address a stitched trace fetches worker spans from.
type placementRef struct {
	Worker    string
	WorkerJob string
}

// notePlacement remembers a placement for trace stitching. Idempotent;
// every attempt and adoption records the worker job it talked to.
func (c *Coordinator) notePlacement(jobID, worker, workerJob string) {
	if worker == "" || workerJob == "" {
		return
	}
	pl := placementRef{Worker: worker, WorkerJob: workerJob}
	c.placedMu.Lock()
	defer c.placedMu.Unlock()
	if !slices.Contains(c.placed[jobID], pl) {
		c.placed[jobID] = append(c.placed[jobID], pl)
	}
}

// workerSpans fetches one worker-side job's spans, keeping only those
// in the federated trace (a worker job placed before trace propagation
// existed carries its own trace id and is skipped).
func (c *Coordinator) workerSpans(r *http.Request, pl placementRef, traceID string) []obs.Span {
	ctx, cancel := context.WithTimeout(r.Context(), c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		pl.Worker+"/api/v1/jobs/"+pl.WorkerJob+"/trace", nil)
	if err != nil {
		return nil
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.log.Warn("trace fetch failed; serving a partial trace",
			"worker", pl.Worker, "worker_job", pl.WorkerJob, "err", err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.log.Warn("trace fetch failed; serving a partial trace",
			"worker", pl.Worker, "worker_job", pl.WorkerJob, "status", resp.StatusCode)
		return nil
	}
	var doc obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		c.log.Warn("trace decode failed; serving a partial trace",
			"worker", pl.Worker, "worker_job", pl.WorkerJob, "err", err)
		return nil
	}
	out := doc.Spans[:0]
	for _, sp := range doc.Spans {
		if sp.TraceID == traceID {
			out = append(out, sp)
		}
	}
	return out
}

// handleStitchedTrace serves the federated trace: the coordinator's
// own spans merged with the spans of every worker-side shard job the
// campaign placed, rendered like any job's trace. Unreachable workers
// degrade to a partial trace rather than an error.
func (c *Coordinator) handleStitchedTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := c.k.Lookup(w, r)
	if !ok {
		return
	}
	spans := j.Spans()
	c.placedMu.Lock()
	placements := slices.Clone(c.placed[j.ID])
	c.placedMu.Unlock()
	for _, pl := range placements {
		spans = append(spans, c.workerSpans(r, pl, j.TraceID)...)
	}
	c.k.WriteTrace(w, r, j, spans)
}
