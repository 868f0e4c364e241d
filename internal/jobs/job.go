package jobs

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	darco "darco"
	"darco/export"
	"darco/internal/stream"
	"darco/obs"
	"darco/store"
	"darco/telemetry"
)

// JobState is a campaign job's lifecycle state. Jobs move
// queued → running → one of the terminal states; there are no other
// transitions.
type JobState string

// Job lifecycle states.
const (
	// JobQueued: accepted and waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is executing the campaign.
	JobRunning JobState = "running"
	// JobDone: every scenario completed successfully.
	JobDone JobState = "done"
	// JobFailed: the campaign finished but at least one scenario
	// failed; the report (with per-scenario errors) is retained and
	// exportable.
	JobFailed JobState = "failed"
	// JobCancelled: the job was stopped by a cancel request or daemon
	// shutdown. A partially-run campaign's report is retained.
	JobCancelled JobState = "cancelled"
	// JobInterrupted: the job was mid-run when the daemon died and could
	// not be resumed; a restarted daemon restored it with the scenario
	// rows that completed before the crash preserved, and never-finished
	// scenarios marked interrupted in its exports.
	JobInterrupted JobState = "interrupted"
	// JobDegraded is reported only by the fleet coordinator's runner: the
	// worker pool was exhausted and the federated campaign finished with
	// synthesized error rows for the scenarios that were never gathered.
	JobDegraded JobState = "degraded"
)

// States is every lifecycle state in exposition order. It drives both
// daemons' jobs{state=…} metric family and the ?state= list filter, so
// a state one of them can assign is never missing from the other's
// grammar or from a scrape.
var States = []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled, JobInterrupted, JobDegraded}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCancelled, JobInterrupted, JobDegraded:
		return true
	}
	return false
}

// JobStatus is the wire representation of a job's current state — what
// the status and list endpoints return and what state events carry.
type JobStatus struct {
	ID    string   `json:"id"`
	Name  string   `json:"name,omitempty"`
	State JobState `json:"state"`

	// Scenarios is the campaign's total scenario count; Completed and
	// Failed advance as workers finish them (Failed counts scenarios,
	// not jobs, and is included in Completed).
	Scenarios int `json:"scenarios"`
	Completed int `json:"completed_scenarios"`
	Failed    int `json:"failed_scenarios,omitempty"`

	// Error summarizes why the job failed or was cancelled.
	Error string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// Job is the kernel's job record. The exported fields are immutable
// once the job is visible; everything else is guarded by mu or set
// before the job reaches another goroutine.
type Job struct {
	ID     string
	Name   string
	Roster []darco.Scenario
	// Spec is whatever the Runner's Validate (or Resume) compiled the
	// submission to; nil for a job restored terminal.
	Spec any
	// TraceID is the trace this job's spans belong to: adopted from the
	// X-Darco-Trace header when an upstream submitted it, otherwise
	// freshly generated.
	TraceID string

	k   *Kernel
	raw []byte // the submission body as journaled
	// parentSpan is the upstream span from the same header; rootSpan the
	// id of the job's own root span, fixed up front so child spans can
	// reference it before the root itself is recorded at finish.
	parentSpan string
	rootSpan   string
	// resumed marks a job picked up again from a history journaled
	// running: its started record and queue-wait span already exist.
	resumed bool

	ctx    context.Context
	cancel context.CancelFunc
	events *stream.Broadcaster

	mu        sync.Mutex
	state     JobState
	err       error
	completed int
	failed    int
	submitted time.Time
	started   time.Time
	finished  time.Time
	// cancelRequested distinguishes a client's cancel from the daemon's
	// own stop cancelling the context: only the former is a durable fact
	// about the job.
	cancelRequested bool
	runSpan         string     // id of the current run span, set at worker pickup
	spans           []obs.Span // the job's recorded (finished) spans
	// settled is set once finish has fixed the job's terminal state: a
	// cancel from then on has nothing left to stop and journals nothing.
	settled bool

	// The result: rows land by scenario index (wall metrics included
	// when the runner has them — the superset every export view derives
	// from), have marks the indices committed, and sealed flips with the
	// terminal transition, once every index holds a row.
	rows        []export.Row
	have        []bool
	sealed      bool
	wallMS      float64
	parallelism int
}

// newJob builds a queued job around a validated plan. Callers fill in
// the identity fields and derive the context before publishing it.
func (k *Kernel) newJob(plan *Plan, raw []byte, submitted time.Time) *Job {
	return &Job{
		Name:      plan.Name,
		Roster:    plan.Roster,
		Spec:      plan.Spec,
		k:         k,
		raw:       raw,
		rootSpan:  obs.NewSpanID(),
		events:    stream.NewBroadcaster(k.cfg.ReplayBuffer),
		state:     JobQueued,
		submitted: submitted,
		rows:      make([]export.Row, len(plan.Roster)),
		have:      make([]bool, len(plan.Roster)),
	}
}

// Commit delivers the row for scenario index i, exactly once: it
// returns false if the index already holds one (a duplicate from a
// reconnected stream, a harvest overlapping live events). The row is
// journaled before its wall-stripped frame publishes, so a daemon that
// dies between the two restores the row and the seeded replay ring
// re-publishes it.
func (j *Job) Commit(i int, row export.Row) bool {
	j.mu.Lock()
	if j.have[i] {
		j.mu.Unlock()
		return false
	}
	j.have[i] = true
	j.rows[i] = row
	j.completed++
	if row.Error != "" {
		j.failed++
	}
	j.mu.Unlock()
	j.k.Journal(store.Record{Kind: store.KindRow, Job: j.ID, Row: &store.RowRecord{Index: i, Row: row}})
	j.events.Publish(EventScenario, ScenarioEvent{Job: j.ID, Index: i, Row: export.StripWallRow(row)})
	return true
}

// Missing filters indices down to those no row was committed for.
func (j *Job) Missing(indices []int) []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []int
	for _, i := range indices {
		if !j.have[i] {
			out = append(out, i)
		}
	}
	return out
}

// Telemetry journals and publishes one instruction-mix window of the
// in-flight scenario at index i.
func (j *Job) Telemetry(i int, scenario string, w telemetry.Window) {
	j.k.Journal(store.Record{Kind: store.KindTelemetry, Job: j.ID,
		Telemetry: &store.TelemetryRecord{Index: i, Scenario: scenario, Window: w}})
	j.events.Publish(EventTelemetry, TelemetryEvent{Job: j.ID, Index: i, Scenario: scenario, Window: w})
}

// seal completes the row set: every index nobody committed gets a row
// carrying reason, committed like any other. It is the one place rows
// are synthesized — for a job cancelled before it started, for what a
// run left ungathered, and for what a crash cut off. The set becomes
// exportable with the terminal transition that follows (end).
func (j *Job) seal(reason error) {
	j.mu.Lock()
	var missing []int
	for i, held := range j.have {
		if !held {
			missing = append(missing, i)
		}
	}
	j.mu.Unlock()
	for _, i := range missing {
		j.Commit(i, export.NewRow(&darco.ScenarioResult{Scenario: j.Roster[i], Err: reason}))
	}
}

// Status snapshots the job under its lock.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		Name:        j.Name,
		State:       j.state,
		Scenarios:   len(j.Roster),
		Completed:   j.completed,
		Failed:      j.failed,
		SubmittedAt: j.submitted,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// resultRows returns the sealed scenario-order rows and the campaign
// wall fields, or an error while the job has not produced them yet.
func (j *Job) resultRows() (rows []export.Row, wallMS float64, parallelism int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.sealed {
		return nil, 0, 0, fmt.Errorf("job %s is %s: no results yet", j.ID, j.state)
	}
	return j.rows, j.wallMS, j.parallelism, nil
}

// ending is a job's terminal transition, fixed before anyone can see
// it: the kernel journals it, then end applies it.
type ending struct {
	Outcome
	finished time.Time
	wallMS   float64
}

// settle fixes the terminal transition of a sealed job from out,
// leaving the job's visible state as it was.
func (j *Job) settle(out Outcome) ending {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.settled = true
	e := ending{Outcome: out, finished: time.Now()}
	if !j.started.IsZero() {
		e.wallMS = float64(e.finished.Sub(j.started).Nanoseconds()) / 1e6
	}
	return e
}

// end applies a journaled terminal transition. State and results flip
// together: a client that reads a terminal status can fetch the
// exports, and a restart from then on restores the same status.
func (j *Job) end(e ending) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.err, j.parallelism, j.sealed = e.State, e.Err, e.Parallelism, true
	j.finished, j.wallMS = e.finished, e.wallMS
}

// registry is the concurrency-safe job index. Jobs are never evicted:
// a campaign daemon's job count is human-scale, and results must stay
// fetchable after completion.
type registry struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	order []*Job
	next  int
}

// add registers j under a fresh sequential id ("job-1", "job-2", ...).
func (rg *registry) add(j *Job) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	rg.next++
	j.ID = fmt.Sprintf("job-%d", rg.next)
	rg.jobs[j.ID] = j
	rg.order = append(rg.order, j)
}

// restore registers a recovered job under its journaled id, keeping
// the sequential counter ahead of every restored id so new submissions
// never collide with history.
func (rg *registry) restore(j *Job) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	rg.jobs[j.ID] = j
	rg.order = append(rg.order, j)
	if n, err := strconv.Atoi(strings.TrimPrefix(j.ID, "job-")); err == nil && n > rg.next {
		rg.next = n
	}
}

func (rg *registry) get(id string) (*Job, bool) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	j, ok := rg.jobs[id]
	return j, ok
}

// list returns every job in submission order.
func (rg *registry) list() []*Job {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	out := make([]*Job, len(rg.order))
	copy(out, rg.order)
	return out
}
