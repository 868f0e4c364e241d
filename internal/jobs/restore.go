package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	darco "darco"
	"darco/export"
	"darco/internal/stream"
	"darco/obs"
	"darco/store"
)

// Recovered counts what New restored from the store, by fate.
type Recovered struct {
	Terminal int // served read-only from their journaled rows
	Requeued int // journaled queued: re-validated and back in the queue
	Resumed  int // journaled running and picked up again by the Runner
}

// Recovered reports what New restored.
func (k *Kernel) Recovered() Recovered { return k.recovered }

// restoreJobs replays the store's histories into the registry and
// returns the jobs to enqueue, in original submission order. Three
// fates, by journaled state:
//
//   - terminal: the job is rebuilt read-only from its journaled rows —
//     every export format serves exactly the pre-restart bytes.
//   - queued: the raw submission is re-validated and the job re-queued,
//     unless its client had already cancelled it (it lands cancelled) or
//     the restarted daemon's limits no longer admit it (failed).
//   - running: the Runner resumes it, or it lands interrupted.
//
// A job that becomes terminal here has the rows synthesized for it and
// its terminal record journaled, so a further restart restores the same
// bytes instead of re-synthesizing them.
func (k *Kernel) restoreJobs() []*Job {
	if k.cfg.Store == nil {
		return nil
	}
	var requeue []*Job
	for _, h := range k.cfg.Store.Jobs() {
		// Row indices are positions in the roster: a body that now expands
		// differently cannot run under its journaled rows.
		admit := func(plan *Plan, err error) (*Plan, error) {
			if err == nil && len(plan.Roster) != h.Scenarios {
				return nil, fmt.Errorf("journaled roster has %d scenarios, submission expands to %d", h.Scenarios, len(plan.Roster))
			}
			return plan, err
		}
		state := JobState(h.State)
		var plan *Plan
		var err error
		switch {
		case state == JobQueued && h.CancelRequested:
			// The daemon died before a worker observed the cancel; the
			// outcome mirrors the live cancelled-while-queued path.
			state, err = JobCancelled, fmt.Errorf("cancelled while queued: %w", context.Canceled)
		case state == JobQueued:
			// The request passed validation once; failing now means the
			// restarted daemon has stricter limits. The job cannot run,
			// and that is a terminal fact worth journaling.
			if plan, err = admit(k.cfg.Runner.Validate(h.Request, true)); err != nil {
				state, err = JobFailed, fmt.Errorf("re-queue after restart: %v", err)
			}
		case state == JobRunning:
			if plan, err = admit(k.cfg.Runner.Resume(h)); err != nil {
				state, err = JobInterrupted, fmt.Errorf("interrupted: %v", err)
			}
		case h.Error != "":
			err = errors.New(h.Error)
		}
		j := k.restoreJob(h, plan)
		if plan != nil {
			j.ctx, j.cancel = context.WithCancel(k.baseCtx)
			requeue = append(requeue, j)
			if j.resumed {
				k.recovered.Resumed++
			} else {
				k.recovered.Requeued++
			}
			k.log.Info("job back in the queue after restart", "job_id", j.ID, "trace_id", j.TraceID,
				"resumed", j.resumed, "rows_journaled", len(h.Rows), "scenarios", len(j.Roster))
			continue
		}
		j.state, j.err = state, err
		if state == JobState(h.State) {
			// Already terminal in the journal. It journaled every row, so
			// the placeholder reason is only a safety net.
			j.seal(fmt.Errorf("no outcome journaled: job ended %s", h.State))
		} else {
			// Terminal as of this restart. The rows it synthesizes are
			// journaled and count like any other, so the status reads
			// the same now and after every later restart.
			j.seal(err)
			k.journalEnd(j.ID, ending{Outcome: Outcome{State: state, Err: err, Parallelism: j.parallelism},
				finished: j.finished, wallMS: j.wallMS})
			k.log.Info("job ended by the restart", "job_id", j.ID, "trace_id", j.TraceID,
				"state", string(state), "preserved_rows", len(h.Rows), "scenarios", h.Scenarios)
		}
		j.sealed = true
		j.cancel = func() {} // terminal: nothing to cancel
		j.events.Close()
		k.recovered.Terminal++
	}
	rec := k.cfg.Store.Recovery()
	k.log.Info("recovery complete", "store", rec.String(), "restored_terminal", k.recovered.Terminal,
		"requeued", k.recovered.Requeued, "resumed", k.recovered.Resumed)
	return requeue
}

// restoreJob rebuilds one job from its history and registers it: the
// journaled identity, times, spans and rows, and a replay ring seeded
// from the record history, so a late subscriber sees the same frames
// however many restarts the history has been through. With a plan the
// job is live (queued, or resumed if the history had started); without
// one it is terminal and labelled from whatever the journaled request
// still yields.
func (k *Kernel) restoreJob(h *store.JobHistory, plan *Plan) *Job {
	live := plan != nil
	if !live {
		plan = &Plan{Name: h.Name, Roster: rosterFor(h)}
	}
	j := k.newJob(plan, h.Request, h.SubmittedAt)
	j.ID = h.ID
	// The journaled trace identity is readopted (fresh for pre-trace
	// histories) under a fresh root-span id: pre-crash spans referencing
	// the old root come back as orphans, which BuildTree renders as
	// additional roots — the partial trace, never a lost one.
	j.TraceID, j.parentSpan = h.TraceID, h.ParentSpan
	if j.TraceID == "" {
		j.TraceID = obs.NewTraceID()
	}
	j.spans = append([]obs.Span(nil), h.Spans...)
	j.started = h.StartedAt
	j.resumed = live && !h.StartedAt.IsZero()
	if !live {
		if j.finished = h.FinishedAt; j.finished.IsZero() {
			j.finished = time.Now()
		}
		// A federated history cut off before its finished record still
		// knows its fan-out.
		if j.wallMS, j.parallelism = h.WallMS, h.Parallelism; j.parallelism == 0 {
			j.parallelism = len(h.ShardPlan)
		}
	}
	for i, rr := range h.Rows {
		if i >= 0 && i < len(j.rows) {
			j.have[i], j.rows[i] = true, rr.Row
			j.completed++
			if rr.Row.Error != "" {
				j.failed++
			}
		}
	}
	j.events.Seed(replayEvents(h), 0)
	k.jobs.restore(j)
	return j
}

// rosterFor re-derives the scenario roster from the journaled
// submission, padded or truncated to the journaled scenario count so a
// history whose request no longer parses still yields labeled rows.
func rosterFor(h *store.JobHistory) []darco.Scenario {
	out := make([]darco.Scenario, h.Scenarios)
	for i := range out {
		out[i] = darco.Scenario{Name: fmt.Sprintf("scenario-%d", i)}
	}
	if req, err := ParseSubmit(h.Request); err == nil {
		if roster, err := req.Roster(); err == nil {
			copy(out, roster)
		}
	}
	return out
}

// replayEvents rebuilds a restored job's event-stream history from its
// journal records, in append order, shaped exactly like the frames the
// live run published.
func replayEvents(h *store.JobHistory) []stream.Event {
	var evs []stream.Event
	for i := range h.Records {
		switch rec := &h.Records[i]; {
		case rec.Kind == store.KindRow && rec.Row != nil:
			evs = append(evs, stream.Event{Kind: EventScenario, Data: ScenarioEvent{
				Job: h.ID, Index: rec.Row.Index, Row: export.StripWallRow(rec.Row.Row)}})
		case rec.Kind == store.KindTelemetry && rec.Telemetry != nil:
			evs = append(evs, stream.Event{Kind: EventTelemetry, Data: TelemetryEvent{
				Job: h.ID, Index: rec.Telemetry.Index, Scenario: rec.Telemetry.Scenario, Window: rec.Telemetry.Window}})
		}
	}
	return evs
}
