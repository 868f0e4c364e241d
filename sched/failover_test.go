package sched_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"darco/internal/testutil"
	"darco/sched"
	"darco/serve"
	"darco/store"
)

// crashBody is the standard crash-drill campaign: four scenarios whose
// middle-of-shard "slow" member keeps a worker-side shard job running
// long enough for the coordinator to die and come back around it.
// Parallelism 1 makes the slow scenario block its shard's later rows.
const crashBody = `{"name":"crashy","parallelism":1,"scenarios":[` +
	`{"profile":"429.mcf","scale":0.1},{"profile":"470.lbm","scale":0.1},` +
	`{"profile":"429.mcf","scale":5,"name":"slow"},{"profile":"470.lbm","scale":0.1}]}`

// openStore opens a coordinator store with a once-guarded closer that
// is also registered as a cleanup safety net. Register it BEFORE any
// newCoordinator over the same store: cleanups run LIFO, so the
// coordinator's Shutdown lands before the store closes.
func openStore(t *testing.T, dir string) (*store.Store, func()) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	closeFn := func() {
		once.Do(func() {
			if err := st.Close(); err != nil {
				t.Errorf("store close: %v", err)
			}
		})
	}
	t.Cleanup(closeFn)
	return st, closeFn
}

// startCrashable is newCoordinator for a coordinator the test kills by
// hand: no graceful-shutdown cleanup, just an idempotent Halt safety
// net in case the test fails before the planned crash.
func startCrashable(t *testing.T, opts sched.Options) (*sched.Coordinator, *httptest.Server) {
	t.Helper()
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 200 * time.Millisecond
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	if opts.RetryBaseDelay == 0 {
		opts.RetryBaseDelay = 20 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = testutil.Slogger(t)
	}
	c, err := sched.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(func() {
		c.Halt()
		ts.Close()
	})
	return c, ts
}

// metricValue reads one un-labeled counter from /metrics.
func metricValue(t *testing.T, base, name string) int {
	t.Helper()
	for _, line := range strings.Split(string(fetch(t, base+"/metrics", http.StatusOK, "")), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// compareExports asserts every export format's bytes match want.
func compareExports(t *testing.T, jobBase string, want map[string][]byte) {
	t.Helper()
	for _, p := range exportPaths {
		got := fetch(t, jobBase+p, http.StatusOK, "")
		if !bytes.Equal(got, want[p]) {
			t.Errorf("%s differs:\n--- got ---\n%.400s\n--- want ---\n%.400s", p, got, want[p])
		}
	}
}

// TestCoordinatorKillMidCampaign is the tentpole drill: the coordinator
// is killed (Halt — journal frozen, worker-side shard jobs left
// running, no terminal records) in the middle of a two-worker federated
// campaign. A restarted coordinator over the same data dir must resume
// the job, re-adopt the still-running shard jobs by name, and end with
// all four export formats byte-identical to an uncrashed single-node
// run.
func TestCoordinatorKillMidCampaign(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := newWorker(t, serve.Options{Workers: 2, QueueCapacity: 8})
		urls = append(urls, ts.URL)
	}
	dir := t.TempDir()

	st1, closeSt1 := openStore(t, dir)
	c1, ts1 := startCrashable(t, sched.Options{Workers: urls, Store: st1})
	job := submit(t, ts1.URL, crashBody, http.StatusAccepted)
	// Crash only after the fast shard's rows are journaled, so the
	// restart genuinely resumes mid-run state (submission, plan,
	// placement leases, gathered rows) instead of replaying a fresh job.
	waitState(t, ts1.URL, job.ID, func(s serve.JobStatus) bool { return s.Completed >= 2 })
	c1.Halt()
	ts1.Close()
	closeSt1()

	st2, _ := openStore(t, dir)
	_, coord := newCoordinator(t, sched.Options{Workers: urls, Store: st2})
	final := waitState(t, coord.URL, job.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobDone {
		t.Fatalf("recovered job ended %s (%s)", final.State, final.Error)
	}
	if final.Completed != final.Scenarios || final.Failed != 0 {
		t.Fatalf("recovered counters: %+v", final)
	}

	want := runReference(t, crashBody, exportPaths)
	compareExports(t, coord.URL+"/api/v1/jobs/"+job.ID, want)

	// The replayed event stream carries each scenario frame exactly
	// once: journal-restored rows seed the ring, re-adopted gathers
	// dedupe against them.
	resp, err := http.Get(coord.URL + "/api/v1/jobs/" + job.ID + "/events?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := make(map[int]bool)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		if f.Event != serve.EventScenario {
			continue
		}
		var ev serve.ScenarioEvent
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			t.Fatal(err)
		}
		if seen[ev.Index] {
			t.Errorf("scenario frame for index %d replayed twice", ev.Index)
		}
		seen[ev.Index] = true
	}
	if len(seen) != final.Scenarios {
		t.Errorf("event stream replayed %d scenario frames, want %d", len(seen), final.Scenarios)
	}

	if v := metricValue(t, coord.URL, "darco_sched_recovery_resumed_jobs"); v != 1 {
		t.Errorf("resumed_jobs = %d, want 1", v)
	}
	if v := metricValue(t, coord.URL, "darco_sched_recovery_readopted_shards"); v < 1 {
		t.Errorf("readopted_shards = %d, want >= 1", v)
	}
	if v := metricValue(t, coord.URL, "darco_sched_recovery_backfilled_rows"); v < 1 {
		t.Errorf("backfilled_rows = %d, want >= 1", v)
	}
}

// TestDeadLeaseRedispatches: the coordinator dies mid-campaign and so
// does the worker holding its unfinished shard. The restarted
// coordinator cannot re-adopt that placement lease — its worker is
// gone — so it falls back to re-dispatching the shard's missing
// scenarios to the live worker, and the job still ends with exports
// byte-identical to an uncrashed run.
func TestDeadLeaseRedispatches(t *testing.T) {
	doomed, doomedTS := newWorker(t, serve.Options{Workers: 2, QueueCapacity: 8})
	_, live := newWorker(t, serve.Options{Workers: 2, QueueCapacity: 8})
	dir := t.TempDir()

	st1, closeSt1 := openStore(t, dir)
	c1, ts1 := startCrashable(t, sched.Options{Workers: []string{doomedTS.URL}, Store: st1})
	job := submit(t, ts1.URL, crashBody, http.StatusAccepted)
	// The fast rows are journaled and the slow one is still running on
	// the doomed worker when both die.
	waitState(t, ts1.URL, job.ID, func(s serve.JobStatus) bool { return s.Completed >= 2 })
	c1.Halt()
	ts1.Close()
	closeSt1()
	crashWorker(t, doomed, doomedTS)

	st2, _ := openStore(t, dir)
	_, coord := newCoordinator(t, sched.Options{Workers: []string{live.URL}, Store: st2})
	final := waitState(t, coord.URL, job.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobDone {
		t.Fatalf("recovered job ended %s (%s)", final.State, final.Error)
	}
	compareExports(t, coord.URL+"/api/v1/jobs/"+job.ID, runReference(t, crashBody, exportPaths))
	if v := metricValue(t, coord.URL, "darco_sched_recovery_redispatched_shards"); v < 1 {
		t.Errorf("redispatched_shards = %d, want >= 1", v)
	}
	if v := metricValue(t, coord.URL, "darco_sched_recovery_readopted_shards"); v != 0 {
		t.Errorf("readopted_shards = %d, want 0: the only lease was dead", v)
	}
}

// TestStandbyTakeover exercises the failover lease: a standby's
// OpenWait blocks while the primary holds the data dir's flock, then
// acquires it the moment the primary dies, and the takeover coordinator
// resumes the campaign to byte-identical exports.
func TestStandbyTakeover(t *testing.T) {
	// The slow member has to outlast the 600 ms the standby is watched
	// waiting under a live primary, or there is nothing left to resume:
	// crashBody's runs for about that long.
	body := strings.Replace(crashBody, `"scale":5`, `"scale":15`, 1)
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := newWorker(t, serve.Options{Workers: 2, QueueCapacity: 8})
		urls = append(urls, ts.URL)
	}
	dir := t.TempDir()

	st1, closeSt1 := openStore(t, dir)
	c1, ts1 := startCrashable(t, sched.Options{Workers: urls, Store: st1})
	job := submit(t, ts1.URL, body, http.StatusAccepted)
	waitState(t, ts1.URL, job.ID, func(s serve.JobStatus) bool { return s.Completed >= 2 })

	type acquired struct {
		st  *store.Store
		err error
	}
	ch := make(chan acquired, 1)
	waitCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() {
		st, err := store.OpenWait(waitCtx, dir, store.Options{})
		ch <- acquired{st, err}
	}()
	// Primary alive: the standby must still be waiting on the lease.
	select {
	case r := <-ch:
		t.Fatalf("standby acquired the lease under a live primary (err %v)", r.err)
	case <-time.After(600 * time.Millisecond):
	}

	c1.Halt()
	ts1.Close()
	closeSt1() // the "kernel releases the dead primary's flock" moment

	r := <-ch
	if r.err != nil {
		t.Fatalf("standby takeover: %v", r.err)
	}
	st2 := r.st
	t.Cleanup(func() { st2.Close() })
	_, coord := newCoordinator(t, sched.Options{Workers: urls, Store: st2})
	final := waitState(t, coord.URL, job.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobDone {
		t.Fatalf("takeover job ended %s (%s)", final.State, final.Error)
	}

	want := runReference(t, body, exportPaths)
	compareExports(t, coord.URL+"/api/v1/jobs/"+job.ID, want)
	if v := metricValue(t, coord.URL, "darco_sched_recovery_resumed_jobs"); v != 1 {
		t.Errorf("resumed_jobs = %d, want 1", v)
	}
}

// TestCleanShutdownRequeuesQueued pins the graceful-stop contract: a
// running job is cancelled and journaled terminal (its exports stable
// across the restart), while a job still queued is left queued on disk
// and runs to completion on the next start.
func TestCleanShutdownRequeuesQueued(t *testing.T) {
	_, wts := newWorker(t, serve.Options{Workers: 2, QueueCapacity: 8})
	dir := t.TempDir()

	st1, closeSt1 := openStore(t, dir)
	c1, ts1 := startCrashable(t, sched.Options{Workers: []string{wts.URL}, Jobs: 1, Store: st1})
	running := submit(t, ts1.URL, `{"name":"doomed","scenarios":[{"profile":"429.mcf","scale":5}]}`, http.StatusAccepted)
	waitState(t, ts1.URL, running.ID, func(s serve.JobStatus) bool { return s.State == serve.JobRunning })
	queuedBody := `{"name":"patient","scenarios":[{"profile":"470.lbm","scale":0.1}]}`
	queued := submit(t, ts1.URL, queuedBody, http.StatusAccepted)

	shutCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c1.Shutdown(shutCtx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// Still serving until the listener closes: capture the cancelled
	// job's sealed exports for the byte-stability check.
	if st := getStatus(t, ts1.URL, running.ID); st.State != serve.JobCancelled {
		t.Fatalf("running job ended %s after graceful shutdown, want cancelled", st.State)
	}
	preCSV := fetch(t, ts1.URL+"/api/v1/jobs/"+running.ID+"/export.csv", http.StatusOK, "")
	ts1.Close()
	closeSt1()

	st2, _ := openStore(t, dir)
	_, coord := newCoordinator(t, sched.Options{Workers: []string{wts.URL}, Store: st2})
	if st := getStatus(t, coord.URL, running.ID); st.State != serve.JobCancelled {
		t.Errorf("restored running job is %s, want cancelled", st.State)
	}
	if got := fetch(t, coord.URL+"/api/v1/jobs/"+running.ID+"/export.csv", http.StatusOK, ""); !bytes.Equal(got, preCSV) {
		t.Errorf("cancelled job's export changed across the restart:\n--- got ---\n%.400s\n--- want ---\n%.400s", got, preCSV)
	}

	final := waitState(t, coord.URL, queued.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobDone {
		t.Fatalf("re-queued job ended %s (%s)", final.State, final.Error)
	}
	want := runReference(t, queuedBody, exportPaths)
	compareExports(t, coord.URL+"/api/v1/jobs/"+queued.ID, want)

	if v := metricValue(t, coord.URL, "darco_sched_recovery_requeued_jobs"); v != 1 {
		t.Errorf("requeued_jobs = %d, want 1", v)
	}
	if v := metricValue(t, coord.URL, "darco_sched_recovery_resumed_jobs"); v != 0 {
		t.Errorf("resumed_jobs = %d, want 0 after a clean shutdown", v)
	}
}

// TestRecoverySubFloorTelemetryInterval: a federated job journaled by
// a coordinator that had no telemetry interval floor is rebuilt after
// the upgrade, and its shards carry the floor so the workers — which
// refuse the same body as a new submission — accept them.
func TestRecoverySubFloorTelemetryInterval(t *testing.T) {
	_, wts := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
	dir := t.TempDir()
	body := `{"scenarios":[{"profile":"429.mcf","scale":0.01}],"telemetry":{"interval_insns":100}}`

	st1, closeSt1 := openStore(t, dir)
	if err := st1.Append(store.Record{Kind: store.KindSubmitted, Job: "job-1", Time: time.Now(),
		Submitted: &store.SubmittedRecord{Scenarios: 1, Request: json.RawMessage(body)}}); err != nil {
		t.Fatal(err)
	}
	closeSt1()

	st2, _ := openStore(t, dir)
	_, coord := newCoordinator(t, sched.Options{Workers: []string{wts.URL}, Store: st2})
	submit(t, coord.URL, body, http.StatusBadRequest)
	submit(t, wts.URL, body, http.StatusBadRequest)
	final := waitState(t, coord.URL, "job-1", func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobDone {
		t.Fatalf("re-queued job ended %s (%s)", final.State, final.Error)
	}
}

// TestSchedJournalCorruption crashes the coordinator, damages the
// journal tail the way a torn write would, and requires the restart to
// salvage the intact prefix, finish the campaign to reference bytes,
// and serve identical bytes again after a further clean restart.
func TestSchedJournalCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncated-tail", func(data []byte) []byte { return data[:len(data)-5] }},
		{"crc-flip", func(data []byte) []byte {
			data[len(data)-3] ^= 0xFF
			return data
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, wts := newWorker(t, serve.Options{Workers: 2, QueueCapacity: 8})
			body := `{"name":"torn","parallelism":1,"scenarios":[` +
				`{"profile":"429.mcf","scale":0.1},{"profile":"429.mcf","scale":5,"name":"slow"},{"profile":"470.lbm","scale":0.1}]}`
			dir := t.TempDir()

			st1, closeSt1 := openStore(t, dir)
			c1, ts1 := startCrashable(t, sched.Options{Workers: []string{wts.URL}, Store: st1})
			job := submit(t, ts1.URL, body, http.StatusAccepted)
			waitState(t, ts1.URL, job.ID, func(s serve.JobStatus) bool { return s.Completed >= 1 })
			c1.Halt()
			ts1.Close()
			closeSt1()

			path := filepath.Join(dir, "journal.wal")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			st2, closeSt2 := openStore(t, dir)
			if rec := st2.Recovery(); rec.Corrupt == "" || rec.DiscardedBytes == 0 {
				t.Fatalf("corruption not detected: %+v", rec)
			}
			c2, ts2 := startCrashable(t, sched.Options{Workers: []string{wts.URL}, Store: st2})
			final := waitState(t, ts2.URL, job.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
			if final.State != serve.JobDone {
				t.Fatalf("salvaged job ended %s (%s)", final.State, final.Error)
			}
			want := runReference(t, body, exportPaths)
			compareExports(t, ts2.URL+"/api/v1/jobs/"+job.ID, want)
			if v := metricValue(t, ts2.URL, "darco_sched_recovery_salvage_discarded_bytes"); v == 0 {
				t.Errorf("salvage_discarded_bytes = 0, want > 0")
			}
			shutCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := c2.Shutdown(shutCtx); err != nil {
				t.Fatalf("post-salvage shutdown: %v", err)
			}
			ts2.Close()
			closeSt2()

			// A further restart serves the same bytes: the salvaged and
			// completed history is now snapshot-frozen.
			st3, _ := openStore(t, dir)
			_, coord := newCoordinator(t, sched.Options{Workers: []string{wts.URL}, Store: st3})
			compareExports(t, coord.URL+"/api/v1/jobs/"+job.ID, want)
		})
	}
}

// TestWorkerDeregistration covers the pool's DELETE endpoint (by
// worker_id and by host:port) and the idempotent re-register.
func TestWorkerDeregistration(t *testing.T) {
	_, w1 := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
	_, w2 := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
	_, coord := newCoordinator(t, sched.Options{Workers: []string{w1.URL, w2.URL}})

	listWorkers := func() []sched.WorkerInfo {
		t.Helper()
		var infos []sched.WorkerInfo
		if err := json.Unmarshal(fetch(t, coord.URL+"/api/v1/workers", http.StatusOK, "application/json"), &infos); err != nil {
			t.Fatal(err)
		}
		return infos
	}
	del := func(key string, want int) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, coord.URL+"/api/v1/workers/"+key, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("DELETE %s: status %d, want %d", key, resp.StatusCode, want)
		}
	}

	infos := listWorkers()
	if len(infos) != 2 {
		t.Fatalf("%d workers registered, want 2", len(infos))
	}
	if infos[0].ID == "" {
		t.Fatalf("worker %s has no probed id: %+v", infos[0].URL, infos[0])
	}

	del(infos[0].ID, http.StatusOK) // by worker_id
	if infos = listWorkers(); len(infos) != 1 || infos[0].URL != w2.URL {
		t.Fatalf("after deregistration: %+v", infos)
	}
	del("unknown-worker", http.StatusNotFound)

	u, err := url.Parse(w2.URL)
	if err != nil {
		t.Fatal(err)
	}
	del(u.Host, http.StatusOK) // by host:port
	if infos = listWorkers(); len(infos) != 0 {
		t.Fatalf("pool not empty: %+v", infos)
	}

	// Registration is idempotent: first POST creates, the second
	// re-probes the same entry.
	reg := func(want int) {
		t.Helper()
		resp, err := http.Post(coord.URL+"/api/v1/workers", "application/json",
			strings.NewReader(`{"url":"`+w1.URL+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("register: status %d, want %d", resp.StatusCode, want)
		}
	}
	reg(http.StatusCreated)
	reg(http.StatusOK)
	if infos = listWorkers(); len(infos) != 1 || infos[0].URL != w1.URL {
		t.Fatalf("after re-registration: %+v", infos)
	}
}

// TestUnrebuildableRunningJobCountsAsInterrupted: a history journaled
// running whose request no longer parses cannot be resumed; it lands
// interrupted, and the jobs-by-state family has a series to count it in.
func TestUnrebuildableRunningJobCountsAsInterrupted(t *testing.T) {
	dir := t.TempDir()
	st1, closeSt1 := openStore(t, dir)
	now := time.Now()
	for _, rec := range []store.Record{
		{Kind: store.KindSubmitted, Job: "job-1", Time: now,
			Submitted: &store.SubmittedRecord{Scenarios: 2, Request: json.RawMessage(`{"scenarioz":[]}`)}},
		{Kind: store.KindStarted, Job: "job-1", Time: now},
	} {
		if err := st1.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	closeSt1()

	st2, _ := openStore(t, dir)
	_, coord := newCoordinator(t, sched.Options{Store: st2})
	if st := getStatus(t, coord.URL, "job-1"); st.State != serve.JobInterrupted || st.Scenarios != 2 {
		t.Fatalf("unrebuildable job restored as %+v", st)
	}
	metrics := string(fetch(t, coord.URL+"/metrics", http.StatusOK, ""))
	for _, line := range []string{`darco_sched_jobs{state="interrupted"} 1`, "darco_sched_jobs_total 1"} {
		if !strings.Contains(metrics, line+"\n") {
			t.Errorf("metrics missing %q:\n%s", line, metrics)
		}
	}
	if err := testutil.ValidatePrometheus([]byte(metrics)); err != nil {
		t.Errorf("/metrics exposition invalid: %v", err)
	}
}
