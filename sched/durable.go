package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	darco "darco"
	"darco/export"
	"darco/internal/stream"
	"darco/obs"
	"darco/serve"
	"darco/store"
)

// This file is the coordinator's recovery path: turning the durable
// store's journaled histories back into live jobs at New.
//
// Three fates, by journaled state:
//
//   - terminal ("done", "failed", "cancelled", "degraded",
//     "interrupted"): the job is rebuilt read-only from its journaled
//     rows — the bytes every export format serves are exactly the
//     pre-crash bytes.
//   - "queued": the raw submission is re-validated and the job
//     re-queued, unless the client had already cancelled it.
//   - "running": the job is *resumed*. Its shard plan and placement
//     leases come back from the journal, already-gathered rows reload
//     into the merge, and each live shard first tries to re-adopt its
//     worker-side job by name (see adoptShard) before falling back to
//     the ordinary missing-scenario re-dispatch path.
//
// The clean-shutdown marker (store-level KindCleanShutdown) is
// consumed here purely as a cross-check: a graceful stop journals a
// terminal record for everything it cancels and leaves queued jobs
// queued, so a "running" history after a marker means the marker's
// guarantee was violated — logged loudly, then resumed anyway, which
// is the safe direction.

// restoreJobs replays the store's histories into the registry and
// returns the jobs to enqueue — re-queued and resumed ones — in
// original submission order.
func (c *Coordinator) restoreJobs() []*job {
	if c.opts.Store == nil {
		return nil
	}
	rec := c.opts.Store.Recovery()
	c.recov.salvageDiscarded.Store(uint64(rec.DiscardedBytes))
	clean := false
	for _, m := range c.opts.Store.Meta() {
		if m.Kind == store.KindCleanShutdown {
			clean = true
		}
	}

	var requeue []*job
	restored := 0
	for _, h := range c.opts.Store.Jobs() {
		switch h.State {
		case string(serve.JobQueued):
			if h.CancelRequested {
				// The client cancelled while the job was queued and the
				// coordinator died before a runner observed it. The
				// rows mirror what the live cancelled-while-queued path
				// synthesizes.
				reason := fmt.Errorf("cancelled while queued: %w", context.Canceled)
				j := c.restoreTerminalJob(h, serve.JobCancelled, reason, reason)
				c.journalSynthesizedRows(j, h)
				c.journal(store.Record{Kind: store.KindFinished, Job: j.id,
					Finished: &store.FinishedRecord{State: string(serve.JobCancelled),
						Error: j.err.Error(), Parallelism: len(j.shards)}})
				c.compact(j.id)
				sealRestored(j, h)
				restored++
				c.log.Info("restored job cancelled while queued before the restart",
					"job_id", j.id, "trace_id", j.traceID)
				continue
			}
			j, err := c.rebuildJob(h)
			if err != nil {
				// The request passed validation once; failing now means
				// the restarted coordinator has stricter limits. The
				// job cannot run, and that is a terminal fact worth
				// journaling.
				jerr := fmt.Errorf("re-queue after restart: %v", err)
				j := c.restoreTerminalJob(h, serve.JobFailed, jerr, jerr)
				c.journalSynthesizedRows(j, h)
				c.journal(store.Record{Kind: store.KindFinished, Job: j.id,
					Finished: &store.FinishedRecord{State: string(serve.JobFailed),
						Error: j.err.Error(), Parallelism: len(j.shards)}})
				c.compact(j.id)
				sealRestored(j, h)
				restored++
				continue
			}
			c.jobs.restore(j)
			requeue = append(requeue, j)
			c.recov.requeuedJobs.Add(1)
			c.log.Info("job re-queued after restart", "job_id", j.id, "trace_id", j.traceID,
				"scenarios", len(j.roster))
		case string(serve.JobRunning):
			if clean {
				c.log.Warn("job journaled running despite a clean-shutdown marker; resuming it anyway",
					"job_id", h.ID)
			}
			j, err := c.rebuildJob(h)
			if err != nil {
				// Unrecoverable: the submission no longer parses, so
				// the roster (and with it the shard mapping) cannot be
				// rebuilt. The job lands interrupted with every
				// journaled row preserved — never silently vanished.
				reason := fmt.Errorf("interrupted: coordinator restarted and could not rebuild the job: %v", err)
				j := c.restoreTerminalJob(h, serve.JobInterrupted, reason, reason)
				c.journalSynthesizedRows(j, h)
				c.journal(store.Record{Kind: store.KindInterrupted, Job: j.id,
					Interrupted: &store.InterruptedRecord{Reason: reason.Error()}})
				c.compact(j.id)
				sealRestored(j, h)
				restored++
				continue
			}
			c.resumeJob(j, h)
			c.jobs.restore(j)
			requeue = append(requeue, j)
			c.recov.resumedJobs.Add(1)
			c.log.Info("job resuming mid-run", "job_id", j.id, "trace_id", j.traceID,
				"rows_journaled", len(h.Rows), "scenarios", h.Scenarios,
				"shards_terminal", len(h.ShardsDone), "shards", len(h.ShardPlan))
		default:
			var jerr error
			if h.Error != "" {
				jerr = errors.New(h.Error)
			}
			// A cleanly-finished job journaled every row, so the
			// placeholder reason is only a safety net.
			j := c.restoreTerminalJob(h, serve.JobState(h.State), jerr,
				fmt.Errorf("not gathered: job ended %s", h.State))
			sealRestored(j, h)
			restored++
		}
	}
	c.log.Info("recovery complete", "store", rec.String(),
		"restored_terminal", restored, "requeued", c.recov.requeuedJobs.Load(),
		"resumed", c.recov.resumedJobs.Load(), "clean_shutdown", clean)
	return requeue
}

// rebuildJob reconstructs a live (queued or running) job from its
// journaled raw submission, exactly as handleSubmit built it.
func (c *Coordinator) rebuildJob(h *store.JobHistory) (*job, error) {
	req, err := serve.ParseSubmit(bytes.NewReader(h.Request))
	if err != nil {
		return nil, err
	}
	// The shards forward this section verbatim, and a worker refuses a
	// new submission below the floor.
	req.Telemetry.Clamp()
	roster, err := req.Roster()
	if err != nil {
		return nil, err
	}
	if len(roster) != h.Scenarios {
		return nil, fmt.Errorf("journaled roster has %d scenarios, submission expands to %d", h.Scenarios, len(roster))
	}
	j := newJob(req, roster, c.baseCtx, c.opts.ReplayBuffer)
	j.id = h.ID
	j.raw = h.Request
	j.submitted = h.SubmittedAt
	j.journal = c.journal
	// Re-adopt the journaled trace identity (fresh for pre-trace
	// histories) with a fresh root-span id: pre-crash spans referencing
	// the old root come back as orphans, which BuildTree renders as
	// additional roots — the partial trace, never a lost one.
	j.traceID, j.parentSpan = h.TraceID, h.ParentSpan
	if j.traceID == "" {
		j.traceID = obs.NewTraceID()
	}
	j.rootSpan = obs.NewSpanID()
	j.spans = append([]obs.Span(nil), h.Spans...)
	return j, nil
}

// resumeJob arms a rebuilt mid-run job for re-adoption: journaled rows
// reload into the merge (without re-journaling or re-publishing — the
// replay ring is seeded from the record history instead), and the
// shard plan comes back with each unfinished shard carrying its last
// placement lease for adoptShard to try first. A crash that beat the
// shard-plan record leaves the job to plan afresh like a first run.
func (c *Coordinator) resumeJob(j *job, h *store.JobHistory) {
	for i, rr := range h.Rows {
		if i >= 0 && i < len(j.roster) {
			j.restoreRow(i, rr.Row)
		}
	}
	j.started = h.StartedAt
	if len(h.ShardPlan) == 0 {
		// Died between "started" and the plan record: nothing was
		// placed, so a fresh plan (and a duplicate started record,
		// which replay tolerates) is correct.
		return
	}
	j.resumed = true
	for si, spec := range h.ShardPlan {
		indices := make([]int, spec.Count)
		for k := range indices {
			indices[k] = spec.Start + k
		}
		sh := &shard{idx: si, indices: indices}
		if pl, ok := h.Placements[si]; ok {
			sh.attempts = pl.Attempt
			sh.workerURL, sh.workerJob = pl.Worker, pl.WorkerJob
			// The journaled span id keeps the re-adopted shard (and the
			// worker-side job spans already parented under it) attached
			// to the same subtree of the federated trace.
			sh.span = pl.Span
			j.notePlacement(pl.Worker, pl.WorkerJob)
			if _, done := h.ShardsDone[si]; !done {
				lease := pl
				sh.adopt = &lease
			}
		}
		j.shards = append(j.shards, sh)
	}
	j.events.Seed(replayFederated(h), 0)
}

// restoreTerminalJob rebuilds one terminal job from its history:
// status, merged rows (journaled ones, with scenarios the journal has
// no outcome for synthesized from rowReason), and shard count for the
// ?wall=1 parallelism column.
func (c *Coordinator) restoreTerminalJob(h *store.JobHistory, state serve.JobState, jerr, rowReason error) *job {
	roster := rosterFor(h)
	rows := make([]export.Row, h.Scenarios)
	completed, failed := 0, 0
	for i := range rows {
		if rr, ok := h.Rows[i]; ok {
			rows[i] = rr.Row
			completed++
			if rr.Row.Error != "" {
				failed++
			}
			continue
		}
		rows[i] = export.NewRow(&darco.ScenarioResult{Scenario: roster[i], Err: rowReason})
	}
	shardCount := len(h.ShardPlan)
	if shardCount == 0 {
		shardCount = h.Parallelism
	}
	j := &job{
		id:         h.ID,
		name:       h.Name,
		roster:     roster,
		raw:        h.Request,
		traceID:    h.TraceID,
		parentSpan: h.ParentSpan,
		spans:      append([]obs.Span(nil), h.Spans...),
		state:      state,
		err:        jerr,
		completed:  completed,
		failed:     failed,
		submitted:  h.SubmittedAt,
		started:    h.StartedAt,
		finished:   h.FinishedAt,
		gathered:   make([]bool, h.Scenarios),
		rows:       rows,
		wallMS:     h.WallMS,
		ready:      true,
		shards:     make([]*shard, shardCount),
		events:     stream.NewBroadcaster(c.opts.ReplayBuffer),
		journal:    c.journal,
	}
	for i := range j.shards {
		j.shards[i] = &shard{idx: i}
	}
	// Journaled placements let the trace endpoint fetch worker-side
	// spans even for a job restored terminal.
	for _, pl := range h.Placements {
		j.notePlacement(pl.Worker, pl.WorkerJob)
	}
	if j.finished.IsZero() {
		j.finished = time.Now()
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.cancel() // terminal: nothing to cancel
	c.jobs.restore(j)
	return j
}

// journalSynthesizedRows journals the rows restoreTerminalJob
// synthesized for scenarios the history had no outcome for — a further
// restart then restores the same bytes instead of re-synthesizing them
// with a different reason.
func (c *Coordinator) journalSynthesizedRows(j *job, h *store.JobHistory) {
	for i := range j.rows {
		if _, ok := h.Rows[i]; !ok {
			c.journal(store.Record{Kind: store.KindRow, Job: j.id,
				Row: &store.RowRecord{Index: i, Row: j.rows[i]}})
		}
	}
}

// sealRestored seeds a restored terminal job's replay ring from its
// (by now fully journaled) record history and closes the stream, so a
// late subscriber sees the same frames however many restarts the
// history has been through.
func sealRestored(j *job, h *store.JobHistory) {
	j.events.Seed(replayFederated(h), 0)
	j.events.Close()
}

// rosterFor re-derives the scenario roster from the journaled
// submission, padded or truncated to the journaled scenario count so a
// history whose request no longer parses still yields labeled rows.
func rosterFor(h *store.JobHistory) []darco.Scenario {
	out := make([]darco.Scenario, h.Scenarios)
	for i := range out {
		out[i] = darco.Scenario{Name: fmt.Sprintf("scenario-%d", i)}
	}
	if req, err := serve.ParseSubmit(bytes.NewReader(h.Request)); err == nil {
		if roster, err := req.Roster(); err == nil {
			copy(out, roster)
		}
	}
	return out
}

// replayFederated rebuilds a restored job's event-stream history from
// its journal records, in append order, shaped exactly like the frames
// the live gather published (rows arrive at the coordinator already
// wall-stripped, so no stripping on replay either).
func replayFederated(h *store.JobHistory) []stream.Event {
	var evs []stream.Event
	for i := range h.Records {
		rec := &h.Records[i]
		switch rec.Kind {
		case store.KindRow:
			if rec.Row == nil {
				continue
			}
			evs = append(evs, stream.Event{Kind: serve.EventScenario, Data: serve.ScenarioEvent{
				Job:   h.ID,
				Index: rec.Row.Index,
				Row:   rec.Row.Row,
			}})
		case store.KindTelemetry:
			if rec.Telemetry == nil {
				continue
			}
			evs = append(evs, stream.Event{Kind: serve.EventTelemetry, Data: serve.TelemetryEvent{
				Job:      h.ID,
				Index:    rec.Telemetry.Index,
				Scenario: rec.Telemetry.Scenario,
				Window:   rec.Telemetry.Window,
			}})
		}
	}
	return evs
}
