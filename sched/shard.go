package sched

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"darco/export"
	"darco/internal/jobs"
	"darco/obs"
	"darco/store"
)

// shard is one contiguous slice of a federated job's roster. Identity
// (idx, indices) is immutable; placement and attempt bookkeeping are
// guarded by mu.
type shard struct {
	idx     int
	indices []int // global scenario indices, ascending and contiguous

	// adopt is the journaled placement lease a restored shard tries to
	// re-attach to before any fresh dispatch; consumed (nilled) after
	// one attempt.
	adopt *store.ShardPlacedRecord

	// span is the shard's trace span id: generated (or restored from
	// the placement lease) before the first attempt, injected into
	// every worker submission's X-Darco-Trace header so the worker-side
	// job's spans parent under it. Written only by the shard's own
	// goroutine (or pre-concurrency during resume).
	span string

	mu        sync.Mutex
	workerURL string // current/most recent placement
	workerJob string // shard job id on that worker
	attempts  int
	lastErr   string
}

// takeAdoption consumes the shard's restored placement lease, if any.
func (sh *shard) takeAdoption() *store.ShardPlacedRecord {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pl := sh.adopt
	sh.adopt = nil
	return pl
}

func (sh *shard) noteAttempt(workerURL string) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.attempts++
	sh.workerURL = workerURL
	sh.workerJob = ""
	return sh.attempts
}

func (sh *shard) setPlacement(workerURL, workerJob string) {
	sh.mu.Lock()
	sh.workerURL = workerURL
	sh.workerJob = workerJob
	sh.mu.Unlock()
}

func (sh *shard) placement() (workerURL, workerJob string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.workerURL, sh.workerJob
}

func (sh *shard) setErr(err error) {
	sh.mu.Lock()
	sh.lastErr = err.Error()
	sh.mu.Unlock()
}

// planShards splits n scenarios into k contiguous, near-even shards
// (the first n%k shards get the extra scenario). Contiguity keeps each
// worker's export.ndjson in global scenario order, so a harvested
// shard maps back positionally.
func planShards(n, k int) []*shard {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	shards := make([]*shard, 0, k)
	base, extra := n/k, n%k
	next := 0
	for i := 0; i < k; i++ {
		size := base
		if i < extra {
			size++
		}
		indices := make([]int, size)
		for s := range indices {
			indices[s] = next
			next++
		}
		shards = append(shards, &shard{idx: i, indices: indices})
	}
	return shards
}

// errBusy marks a 429 from a worker: the worker is healthy but its
// queue is full, so the attempt should back off and re-place without
// counting against the worker's health.
var errBusy = errors.New("worker queue full (429)")

// shardBody builds the worker submission for one shard attempt: the
// missing scenarios spelled out explicitly (profile/scale/name as the
// coordinator's roster expansion produced them — the determinism
// contract that makes the worker reproduce exactly the rows a
// single-node run would), with the campaign knobs forwarded verbatim.
func (c *Coordinator) shardBody(j *fedJob, sh *shard, missing []int, attempt int) ([]byte, error) {
	req := jobs.SubmitRequest{
		Name:              fmt.Sprintf("%s/shard-%d#%d", j.ID, sh.idx, attempt),
		Scenarios:         make([]jobs.ScenarioSpec, 0, len(missing)),
		Parallelism:       j.req.Parallelism,
		ScenarioTimeoutMS: j.req.ScenarioTimeoutMS,
		FailFast:          j.req.FailFast,
		Engine:            j.req.Engine,
		Telemetry:         j.req.Telemetry,
	}
	for _, gi := range missing {
		sc := j.Roster[gi]
		req.Scenarios = append(req.Scenarios, jobs.ScenarioSpec{
			Profile: sc.Profile.Name,
			Scale:   sc.Scale,
			Name:    sc.Name,
		})
	}
	return json.Marshal(&req)
}

// runShard drives one shard to completion: place it on a worker,
// gather its rows from the live event stream, and on any failure
// re-dispatch only the still-missing scenarios to another worker with
// capped exponential backoff. Attempts that make progress (new rows
// gathered) reset the failure budget, so a shard only gives up after
// ShardRetries consecutive attempts that gathered nothing new.
func (c *Coordinator) runShard(j *fedJob, sh *shard) error {
	if sh.span == "" {
		sh.span = obs.NewSpanID()
	}
	err := c.runShardAttempts(j, sh)
	sh.mu.Lock()
	attempts := sh.attempts
	sh.mu.Unlock()
	c.placementAttempts.Observe(float64(attempts))
	if err == nil {
		// The gather loop completed: every one of the shard's scenarios
		// has a committed row. Journaled so a restarted coordinator
		// skips the shard outright instead of re-probing its worker.
		c.k.Journal(store.Record{Kind: store.KindShardTerminal, Job: j.ID,
			ShardTerminal: &store.ShardTerminalRecord{Shard: sh.idx, State: string(jobs.JobDone)}})
	}
	return err
}

func (c *Coordinator) runShardAttempts(j *fedJob, sh *shard) error {
	failures := 0
	var last *worker
	var lastErr error
	for {
		missing := j.Missing(sh.indices)
		if len(missing) == 0 {
			return nil
		}
		if err := j.ctx.Err(); err != nil {
			return err
		}

		// A restored shard first tries to re-adopt its journaled
		// placement: re-attach to the still-running (or finished)
		// worker-side job instead of re-dispatching its scenarios. A
		// dead lease falls through to the normal placement loop.
		if pl := sh.takeAdoption(); pl != nil {
			err := c.adoptShard(j, sh, pl)
			if err == nil {
				continue // recompute missing; normally empty now
			}
			if ctxErr := j.ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			c.recov.redispatched.Add(1)
			sh.setErr(err)
			c.log.Warn("shard re-adoption failed; re-dispatching", "job_id", j.ID, "trace_id", j.TraceID,
				"shard", sh.idx, "worker_job", pl.WorkerJob, "worker", pl.Worker, "err", err)
			continue
		}

		// Prefer a worker other than the one that just failed us; fall
		// back to it if it is the only healthy one.
		w := c.pool.pick(last)
		if w == nil && last != nil {
			w = c.pool.pick(nil)
		}
		if w == nil {
			if c.probeAll(j.ctx) > 0 {
				continue
			}
			failures++
			lastErr = fmt.Errorf("no healthy workers for shard %d (%d scenarios missing)", sh.idx, len(missing))
			if failures > c.opts.ShardRetries {
				return lastErr
			}
			if err := c.backoff(j.ctx, failures); err != nil {
				return err
			}
			continue
		}

		attempt := sh.noteAttempt(w.url)
		err := c.attemptShard(j, sh, w, missing, attempt)
		w.release()
		if err == nil {
			last = nil
			continue // recompute missing; normally empty now
		}
		if ctxErr := j.ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		w.noteRetry()
		sh.setErr(err)
		c.log.Warn("shard attempt failed", "job_id", j.ID, "trace_id", j.TraceID,
			"shard", sh.idx, "attempt", attempt, "worker", w.url, "err", err)
		lastErr = err
		last = w
		if after := len(j.Missing(sh.indices)); after < len(missing) {
			failures = 0 // progress: rows were gathered before the failure
		} else {
			failures++
		}
		if failures > c.opts.ShardRetries {
			return fmt.Errorf("shard %d exhausted after %d fruitless attempts: %w", sh.idx, failures, lastErr)
		}
		if err := c.backoff(j.ctx, failures); err != nil {
			return err
		}
	}
}

// backoff sleeps base*2^(failures-1), capped, or returns early when
// ctx ends.
func (c *Coordinator) backoff(ctx context.Context, failures int) error {
	d := c.opts.RetryBaseDelay
	for i := 1; i < failures && d < c.opts.RetryMaxDelay; i++ {
		d *= 2
	}
	if d > c.opts.RetryMaxDelay {
		d = c.opts.RetryMaxDelay
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// attemptShard is one placement: submit the missing scenarios to w,
// then gather rows until the shard job reaches a terminal state.
func (c *Coordinator) attemptShard(j *fedJob, sh *shard, w *worker, missing []int, attempt int) error {
	body, err := c.shardBody(j, sh, missing, attempt)
	if err != nil {
		return err
	}
	wid, err := c.submitShard(j.ctx, w, body, j.TraceID, sh.span)
	if err != nil {
		return err
	}
	sh.setPlacement(w.url, wid)
	c.notePlacement(j.ID, w.url, wid)
	w.notePlaced()
	// The lease is journaled with exactly the globals this submission
	// carried: the worker-side job's local scenario index i means
	// missing[i], and that positional mapping — not the shard's full
	// range — is what a re-adopting coordinator must decode the event
	// stream and harvest with.
	c.k.Journal(store.Record{Kind: store.KindShardPlaced, Job: j.ID,
		ShardPlaced: &store.ShardPlacedRecord{
			Shard:     sh.idx,
			Worker:    w.url,
			WorkerJob: wid,
			Attempt:   attempt,
			Scenarios: missing,
			Span:      sh.span,
		}})
	return c.gatherShard(j, w, wid, missing)
}

// adoptShard re-attaches to a journaled placement lease: confirm the
// worker still knows the shard job, then resume gathering from its
// event stream (the replay ring re-delivers rows the coordinator
// missed while down; commit dedupes ones it already journaled) or, for
// an already-finished shard job, harvest its export.ndjson directly.
// Rows recovered either way count as backfilled.
func (c *Coordinator) adoptShard(j *fedJob, sh *shard, pl *store.ShardPlacedRecord) error {
	w, err := c.pool.ensure(pl.Worker)
	if err != nil {
		return err
	}
	w.reserve()
	defer w.release()
	st, err := c.shardStatus(j.ctx, w, pl.WorkerJob)
	if err != nil {
		w.markUnhealthy(err)
		return fmt.Errorf("adopt shard job %s: %w", pl.WorkerJob, err)
	}
	sh.setPlacement(w.url, pl.WorkerJob)
	c.notePlacement(j.ID, w.url, pl.WorkerJob)
	before := len(j.Missing(pl.Scenarios))
	switch st.State {
	case jobs.JobDone, jobs.JobFailed:
		// Finished while the coordinator was down: the worker's
		// export.ndjson is the complete, deterministic row set.
		err = c.harvestShard(j, w, pl.WorkerJob, pl.Scenarios)
	default:
		// Queued, running, or ended cancelled/interrupted: the gather
		// path handles all of them — errorless rows commit (from the
		// replay ring and then live), a terminal cancelled/interrupted
		// state comes back as an error and the remainder re-dispatches.
		err = c.gatherShard(j, w, pl.WorkerJob, pl.Scenarios)
	}
	if n := before - len(j.Missing(pl.Scenarios)); n > 0 {
		c.recov.backfilledRows.Add(uint64(n))
	}
	if err != nil {
		return err
	}
	c.recov.readoptedShards.Add(1)
	c.log.Info("shard re-adopted", "job_id", j.ID, "trace_id", j.TraceID,
		"shard", sh.idx, "worker_job", pl.WorkerJob, "worker", w.url, "state", string(st.State))
	return nil
}

// submitShard POSTs one shard submission, stamping it with the job's
// trace context so the worker-side job's spans join the federated
// trace under the shard's span. A 429 comes back as errBusy (healthy
// worker, full queue); a transport error marks the worker unhealthy
// until the prober sees it again.
func (c *Coordinator) submitShard(ctx context.Context, w *worker, body []byte, traceID, parentSpan string) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectTrace(req.Header, traceID, parentSpan)
	resp, err := c.client.Do(req)
	if err != nil {
		w.markUnhealthy(err)
		return "", fmt.Errorf("submit to %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var st jobs.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return "", fmt.Errorf("submit to %s: decoding 202 body: %w", w.url, err)
		}
		return st.ID, nil
	case http.StatusTooManyRequests:
		w.noteRejected()
		return "", fmt.Errorf("submit to %s: %w", w.url, errBusy)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("submit to %s: status %d: %s", w.url, resp.StatusCode, bytes.TrimSpace(msg))
	}
}

// gatherShard consumes the shard job's event stream until it reports a
// terminal state, committing errorless rows into the federated merge as
// they arrive. Errored rows enter only through the harvest of a shard
// that ended done or failed: a shard that instead ends cancelled or
// interrupted (worker died, restarted daemon synthesized "interrupted"
// rows) must not leak those synthetic errors into the merged export —
// its missing scenarios get re-dispatched and only genuinely-produced
// rows count. A broken stream reconnects (the worker's replay ring
// resends the prefix; commit dedupes) before the attempt is abandoned.
func (c *Coordinator) gatherShard(j *fedJob, w *worker, wid string, globals []int) error {
	for reconnects := 0; ; reconnects++ {
		final, streamErr := c.consumeStream(j, w, wid, globals)
		if err := j.ctx.Err(); err != nil {
			return err
		}
		if final == "" {
			// Stream broke without a terminal frame. Ask the worker
			// directly; a dead worker fails the attempt.
			st, err := c.shardStatus(j.ctx, w, wid)
			if err != nil {
				w.markUnhealthy(err)
				return fmt.Errorf("shard job %s on %s: stream broke (%v) and status check failed: %w", wid, w.url, streamErr, err)
			}
			final = st.State
			if !st.State.Terminal() {
				if reconnects >= 3 {
					return fmt.Errorf("shard job %s on %s: stream broke %d times: %v", wid, w.url, reconnects+1, streamErr)
				}
				continue // job still live: reconnect and resume
			}
		}
		switch final {
		case jobs.JobDone, jobs.JobFailed:
			// The shard ran to completion; its errored rows are genuine
			// deterministic scenario failures, part of the campaign
			// result, and the harvest commits them.
			return c.harvestShard(j, w, wid, globals)
		default: // cancelled, interrupted
			return fmt.Errorf("shard job %s on %s ended %s", wid, w.url, final)
		}
	}
}

// streamFrame is one NDJSON event-stream line as the worker frames it.
type streamFrame struct {
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data"`
}

// consumeStream reads one connection's worth of the shard job's NDJSON
// event stream, mapping shard-local scenario indices through globals
// into the federated job. It commits errorless rows only (see
// gatherShard). It returns the terminal state if one was seen, or ""
// with the transport error when the stream broke first.
func (c *Coordinator) consumeStream(j *fedJob, w *worker, wid string, globals []int) (jobs.JobState, error) {
	req, err := http.NewRequestWithContext(j.ctx, http.MethodGet,
		w.url+"/api/v1/jobs/"+wid+"/events?format=ndjson", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.streamClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("event stream for %s on %s: status %d", wid, w.url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var f streamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return "", fmt.Errorf("event stream for %s on %s: bad frame: %v", wid, w.url, err)
		}
		switch f.Event {
		case jobs.EventState:
			var st jobs.JobStatus
			if err := json.Unmarshal(f.Data, &st); err != nil {
				return "", err
			}
			if st.State.Terminal() {
				return st.State, nil
			}
		case jobs.EventScenario:
			var ev jobs.ScenarioEvent
			if err := json.Unmarshal(f.Data, &ev); err != nil {
				return "", err
			}
			if ev.Index < 0 || ev.Index >= len(globals) {
				continue
			}
			if ev.Row.Error == "" && j.Commit(globals[ev.Index], ev.Row) {
				w.noteRows(1)
			}
		case jobs.EventTelemetry:
			var ev jobs.TelemetryEvent
			if err := json.Unmarshal(f.Data, &ev); err != nil {
				return "", err
			}
			if ev.Index < 0 || ev.Index >= len(globals) {
				continue
			}
			// Journaled at the global index (fsync-exempt under the
			// default lifecycle policy) so a restored job's replayed
			// event stream carries its telemetry history too.
			j.Telemetry(globals[ev.Index], ev.Scenario, ev.Window)
		}
		// Dropped markers need no handling here: the post-terminal
		// harvest fetches any rows the stream lost.
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// shardStatus fetches a shard job's JobStatus from its worker.
func (c *Coordinator) shardStatus(ctx context.Context, w *worker, wid string) (jobs.JobStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	var st jobs.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/api/v1/jobs/"+wid, nil)
	if err != nil {
		return st, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status for %s on %s: %d", wid, w.url, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// harvestShard backfills the rows the event stream did not commit, the
// errored ones and any it lost (dropped frames under load), from the
// completed shard job's export.ndjson,
// whose lines are in shard scenario order — i.e. positionally aligned
// with globals. commit dedupes rows the stream already delivered.
func (c *Coordinator) harvestShard(j *fedJob, w *worker, wid string, globals []int) error {
	if len(j.Missing(globals)) == 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(j.ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.url+"/api/v1/jobs/"+wid+"/export.ndjson", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("harvest %s from %s: %w", wid, w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("harvest %s from %s: status %d", wid, w.url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	k := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if k >= len(globals) {
			return fmt.Errorf("harvest %s from %s: more rows than the %d submitted scenarios", wid, w.url, len(globals))
		}
		var row export.Row
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return fmt.Errorf("harvest %s from %s: row %d: %v", wid, w.url, k, err)
		}
		if j.Commit(globals[k], row) {
			w.noteRows(1)
		}
		k++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("harvest %s from %s: %w", wid, w.url, err)
	}
	if k != len(globals) {
		return fmt.Errorf("harvest %s from %s: %d rows for %d scenarios", wid, w.url, k, len(globals))
	}
	return nil
}

// cancelShard best-effort cancels the shard's current worker-side job,
// so a cancelled federated campaign stops burning worker CPU. Runs on
// a background context: the federated job's own context is already
// cancelled by the time this is called.
func (c *Coordinator) cancelShard(sh *shard) {
	if c.halted.Load() {
		// A "crashed" coordinator must leave worker-side jobs running —
		// that is precisely what re-adoption recovers.
		return
	}
	wurl, wid := sh.placement()
	if wurl == "" || wid == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wurl+"/api/v1/jobs/"+wid+"/cancel", nil)
	if err != nil {
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.log.Warn("shard cancel failed", "worker_job", wid, "worker", wurl, "err", err)
		return
	}
	resp.Body.Close()
}
