package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"darco/internal/testutil"
	"darco/serve"
	"darco/store"
	"darco/telemetry"
)

// crashServer tears a daemon down the way SIGKILL would look to the
// store: the journal is frozen exactly as appended (the store closes
// first, so no terminal records land), then the process machinery is
// reaped so the test stays goroutine- and race-clean.
func crashServer(t *testing.T, st *store.Store, srv *serve.Server, ts *httptest.Server) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("post-crash reap: %v", err)
	}
}

// TestKillAndRestartE2E is the acceptance scenario: a daemon dies over
// a durable store with one finished job, one mid-run job, and one
// queued job; the restarted daemon serves the finished job's exports
// byte-identical to the pre-crash bytes, preserves the mid-run job's
// completed rows under the interrupted state, re-queues and runs the
// queued job, and keeps the id sequence. Run under -race.
func TestKillAndRestartE2E(t *testing.T) {
	dir := t.TempDir()
	opts := serve.Options{Workers: 1, MaxParallelism: 1, QueueCapacity: 4}

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o1 := opts
	o1.Store = st1
	srv1 := serve.New(o1)
	ts1 := httptest.NewServer(srv1)

	// Job 1 runs to completion before the crash; its exports are the
	// bytes the restarted daemon must reproduce.
	j1 := submit(t, ts1.URL, `{"name":"survivor","scenarios":[
		{"profile":"429.mcf","scale":0.05},{"profile":"470.lbm","scale":0.05}]}`,
		http.StatusAccepted)
	final := waitState(t, ts1.URL, j1.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if final.State != serve.JobDone {
		t.Fatalf("job 1 ended %s (%s)", final.State, final.Error)
	}
	base1 := ts1.URL + "/api/v1/jobs/" + j1.ID
	paths := []string{"/export.json", "/export.csv", "/export.ndjson", "/export.html", "/export.json?wall=1", "/export.csv?wall=1", "/trace"}
	want := make(map[string][]byte, len(paths))
	for _, p := range paths {
		want[p] = fetch(t, base1+p, 200, "")
	}
	if n := bytes.Count(want["/trace"], []byte(`"catch-up"`)); n != 4 { // span list and tree, two scenarios
		t.Fatalf("trace names catch-up %d times before the crash:\n%s", n, want["/trace"])
	}

	// Job 2 is mid-run at the crash: one quick scenario (its row must
	// survive), then long ones the daemon dies inside.
	j2 := submit(t, ts1.URL, `{"scenarios":[
		{"profile":"429.mcf","scale":0.05},{"profile":"429.mcf","scale":1},
		{"profile":"429.mcf","scale":1},{"profile":"429.mcf","scale":1}]}`,
		http.StatusAccepted)
	waitState(t, ts1.URL, j2.ID, func(s serve.JobStatus) bool {
		return s.State == serve.JobRunning && s.Completed >= 1
	})

	// Job 3 never gets a worker before the crash.
	j3 := submit(t, ts1.URL, `{"scenarios":[{"profile":"470.lbm","scale":0.05}]}`, http.StatusAccepted)
	if st := getStatus(t, ts1.URL, j3.ID); st.State != serve.JobQueued {
		t.Fatalf("job 3 is %s before the crash, want queued", st.State)
	}

	crashServer(t, st1, srv1, ts1)

	// Restart over the same directory.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2 := opts
	o2.Store = st2
	srv2 := serve.New(o2)
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := st2.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})

	var list []serve.JobStatus
	if err := json.Unmarshal(fetch(t, ts2.URL+"/api/v1/jobs", 200, ""), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0].ID != j1.ID || list[1].ID != j2.ID || list[2].ID != j3.ID {
		t.Fatalf("restored listing: %+v", list)
	}

	// Job 1: done, timestamps preserved, every export byte-identical.
	re1 := getStatus(t, ts2.URL, j1.ID)
	if re1.State != serve.JobDone || re1.Name != "survivor" || re1.Completed != 2 {
		t.Fatalf("restored job 1: %+v", re1)
	}
	if re1.StartedAt == nil || !re1.SubmittedAt.Equal(final.SubmittedAt) || !re1.StartedAt.Equal(*final.StartedAt) {
		t.Errorf("restored job 1 timestamps: %+v vs %+v", re1, final)
	}
	for _, p := range paths {
		if got := fetch(t, ts2.URL+"/api/v1/jobs/"+j1.ID+p, 200, ""); !bytes.Equal(got, want[p]) {
			t.Errorf("%s differs across restart:\n%s\nvs pre-crash:\n%s", p, got, want[p])
		}
	}

	// Job 2: interrupted, the pre-crash row preserved, the rest marked
	// — and counted: the status counts the job's rows, synthesized or
	// run (TestSecondRestartStaysByteIdentical holds it across restarts).
	re2 := getStatus(t, ts2.URL, j2.ID)
	if re2.State != serve.JobInterrupted || re2.Completed != 4 || re2.Failed < 1 || re2.Failed >= 4 {
		t.Fatalf("restored job 2: %+v", re2)
	}
	if !strings.Contains(re2.Error, "interrupted") {
		t.Errorf("restored job 2 error: %q", re2.Error)
	}
	csv2 := fetch(t, ts2.URL+"/api/v1/jobs/"+j2.ID+"/export.csv", 200, "text/csv")
	lines := strings.Split(strings.TrimRight(string(csv2), "\n"), "\n")
	if len(lines) != 5 { // header + 4 scenarios
		t.Fatalf("interrupted export has %d lines:\n%s", len(lines), csv2)
	}
	if !strings.Contains(lines[1], ",ok,") {
		t.Errorf("first pre-crash row did not survive: %s", lines[1])
	}
	if !strings.Contains(lines[4], "interrupted: daemon restarted") {
		t.Errorf("never-run scenario not marked interrupted: %s", lines[4])
	}

	// Job 2's stream replays the journaled prefix, then ends terminal.
	frames := readStream(t, ts2.URL+"/api/v1/jobs/"+j2.ID+"/events", false)
	var sawRow0 bool
	for _, f := range frames {
		if f.kind == serve.EventScenario {
			var ev serve.ScenarioEvent
			if err := json.Unmarshal(f.data, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Index == 0 && ev.Row.Scenario == "429.mcf" {
				sawRow0 = true
			}
		}
	}
	if !sawRow0 {
		t.Error("interrupted job's stream did not replay the surviving scenario row")
	}
	var last serve.JobStatus
	if err := json.Unmarshal(frames[len(frames)-1].data, &last); err != nil {
		t.Fatal(err)
	}
	if last.State != serve.JobInterrupted {
		t.Errorf("interrupted job's stream ended in state %s", last.State)
	}

	// Job 3: re-queued, runs to completion on the new daemon.
	re3 := waitState(t, ts2.URL, j3.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if re3.State != serve.JobDone {
		t.Fatalf("re-queued job ended %s (%s)", re3.State, re3.Error)
	}
	if got := fetch(t, ts2.URL+"/api/v1/jobs/"+j3.ID+"/export.csv", 200, ""); !strings.Contains(string(got), "470.lbm") {
		t.Errorf("re-queued job export:\n%s", got)
	}

	// The id sequence continues past restored history.
	j4 := submit(t, ts2.URL, `{"scenarios":[{"profile":"429.mcf","scale":0.05}]}`, http.StatusAccepted)
	if j4.ID != "job-4" {
		t.Errorf("post-restart submission got id %s, want job-4", j4.ID)
	}
	waitState(t, ts2.URL, j4.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
}

// TestCancelledQueuedJobSurvivesRestart: a cancel issued while a job
// is still deep in the queue is journaled immediately, so a daemon
// that dies before any worker observes it restores the job as
// cancelled instead of re-running it.
func TestCancelledQueuedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := serve.Options{Workers: 1, MaxParallelism: 1, QueueCapacity: 4}

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o1 := opts
	o1.Store = st1
	srv1 := serve.New(o1)
	ts1 := httptest.NewServer(srv1)

	// Occupy the only worker, then queue and cancel a second job.
	blocker := submit(t, ts1.URL, `{"scenarios":[
		{"profile":"429.mcf","scale":1},{"profile":"429.mcf","scale":1},
		{"profile":"429.mcf","scale":1}]}`, http.StatusAccepted)
	waitState(t, ts1.URL, blocker.ID, func(s serve.JobStatus) bool { return s.State == serve.JobRunning })
	queued := submit(t, ts1.URL, `{"scenarios":[{"profile":"470.lbm","scale":0.05}]}`, http.StatusAccepted)
	fetchCancel(t, ts1.URL, queued.ID)
	if st := getStatus(t, ts1.URL, queued.ID); st.State != serve.JobQueued {
		t.Fatalf("cancelled-but-unpopped job is %s, want still queued", st.State)
	}

	crashServer(t, st1, srv1, ts1)

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2 := opts
	o2.Store = st2
	srv2 := serve.New(o2)
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := st2.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})

	re := getStatus(t, ts2.URL, queued.ID)
	if re.State != serve.JobCancelled {
		t.Fatalf("restored cancelled-while-queued job is %s", re.State)
	}
	if !strings.Contains(re.Error, "cancelled while queued") {
		t.Errorf("restored error: %q", re.Error)
	}
	csv := fetch(t, ts2.URL+"/api/v1/jobs/"+queued.ID+"/export.csv", 200, "")
	if !strings.Contains(string(csv), "cancelled while queued: context canceled") {
		t.Errorf("restored rows miss the live-path cancellation reason:\n%s", csv)
	}
}

// TestSecondRestartStaysByteIdentical: recovery journals the rows it
// synthesizes (interrupted placeholders), so an interrupted job's
// status and exports survive any number of further restarts unchanged —
// not just the first one.
func TestSecondRestartStaysByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := serve.Options{Workers: 1, MaxParallelism: 1}

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Store = st1
	srv1 := serve.New(o)
	ts1 := httptest.NewServer(srv1)
	j := submit(t, ts1.URL, `{"scenarios":[
		{"profile":"429.mcf","scale":0.05},{"profile":"429.mcf","scale":1},
		{"profile":"429.mcf","scale":1}]}`, http.StatusAccepted)
	waitState(t, ts1.URL, j.ID, func(s serve.JobStatus) bool {
		return s.State == serve.JobRunning && s.Completed >= 1
	})
	crashServer(t, st1, srv1, ts1)

	var want []byte
	for restart := 1; restart <= 2; restart++ {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Store = st
		srv := serve.New(o)
		ts := httptest.NewServer(srv)
		if got := getStatus(t, ts.URL, j.ID); got.State != serve.JobInterrupted {
			t.Fatalf("restart %d: job is %s", restart, got.State)
		}
		got := append(fetch(t, ts.URL+"/api/v1/jobs/"+j.ID, 200, ""),
			fetch(t, ts.URL+"/api/v1/jobs/"+j.ID+"/export.csv", 200, "")...)
		if restart == 1 {
			want = got
			if !strings.Contains(string(got), "interrupted: daemon restarted") {
				t.Fatalf("restart 1 export misses the interruption reason:\n%s", got)
			}
		} else if !bytes.Equal(got, want) {
			t.Errorf("status and export.csv changed between restarts:\n%s\nvs:\n%s", got, want)
		}
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartAfterGracefulShutdown: the quieter durability path — a
// clean shutdown followed by a restart serves the same history from
// the compacted snapshots.
func TestRestartAfterGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := serve.New(serve.Options{Store: st1})
	ts1 := httptest.NewServer(srv1)
	j1 := submit(t, ts1.URL, `{"scenarios":[{"profile":"429.mcf","scale":0.05}]}`, http.StatusAccepted)
	waitState(t, ts1.URL, j1.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	wantCSV := fetch(t, ts1.URL+"/api/v1/jobs/"+j1.ID+"/export.csv", 200, "")
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec := st2.Recovery(); rec.SnapshotJobs != 1 || rec.Jobs != 1 {
		t.Fatalf("recovery after graceful shutdown: %+v", rec)
	}
	srv2 := serve.New(serve.Options{Store: st2})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())
	if got := fetch(t, ts2.URL+"/api/v1/jobs/"+j1.ID+"/export.csv", 200, ""); !bytes.Equal(got, wantCSV) {
		t.Errorf("export differs across graceful restart:\n%s\nvs:\n%s", got, wantCSV)
	}
}

// TestRecoverySubFloorTelemetryInterval: the telemetry interval floor
// applies to new submissions only. A journal written by a daemon that
// had no floor still recovers: the queued job runs, at the floor, and
// the mid-run job lands interrupted with its rows labelled from the
// request as before.
func TestRecoverySubFloorTelemetryInterval(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	body := json.RawMessage(`{"scenarios":[{"profile":"429.mcf","scale":0.01,"name":"below-the-floor"}],"telemetry":{"interval_insns":100}}`)
	now := time.Now()
	for _, rec := range []store.Record{
		{Kind: store.KindSubmitted, Job: "job-1", Time: now,
			Submitted: &store.SubmittedRecord{Scenarios: 1, Request: body}},
		{Kind: store.KindStarted, Job: "job-1", Time: now},
		{Kind: store.KindSubmitted, Job: "job-2", Time: now,
			Submitted: &store.SubmittedRecord{Scenarios: 1, Request: body}},
	} {
		if err := st1.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv := serve.New(serve.Options{Store: st2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// The same body is refused as a new submission.
	submit(t, ts.URL, string(body), http.StatusBadRequest)

	if st := getStatus(t, ts.URL, "job-1"); st.State != serve.JobInterrupted {
		t.Fatalf("mid-run job restored as %s: %s", st.State, st.Error)
	}
	if csv := fetch(t, ts.URL+"/api/v1/jobs/job-1/export.csv", 200, ""); !strings.Contains(string(csv), "below-the-floor") {
		t.Errorf("interrupted job's rows lost their labels:\n%s", csv)
	}

	done := waitState(t, ts.URL, "job-2", func(s serve.JobStatus) bool { return s.State.Terminal() })
	if done.State != serve.JobDone {
		t.Fatalf("re-queued job ended %s: %s", done.State, done.Error)
	}
	var wins []telemetry.Window
	for _, f := range readStream(t, ts.URL+"/api/v1/jobs/job-2/events", true) {
		if f.kind != serve.EventTelemetry {
			continue
		}
		var ev serve.TelemetryEvent
		if err := json.Unmarshal(f.data, &ev); err != nil {
			t.Fatal(err)
		}
		wins = append(wins, ev.Window)
	}
	// Every window but the shorter final one is exactly the floor.
	for _, w := range wins[:max(len(wins)-1, 0)] {
		if w.Insns != serve.MinTelemetryInterval {
			t.Fatalf("window %d holds %d instructions, want the floor %d", w.Index, w.Insns, serve.MinTelemetryInterval)
		}
	}
	if len(wins) < 2 {
		t.Errorf("re-queued job streamed %d telemetry windows", len(wins))
	}
}

// TestLateSubscriberReplay: a subscriber joining a live job after its
// first scenario finished still receives that scenario's frame — the
// replay ring closes the gap the lossy stream used to have.
func TestLateSubscriberReplay(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{MaxParallelism: 1})
	st := submit(t, ts.URL, `{"scenarios":[
		{"profile":"429.mcf","scale":0.05},{"profile":"429.mcf","scale":1}]}`,
		http.StatusAccepted)
	waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.Completed >= 1 })

	frames := readStream(t, ts.URL+"/api/v1/jobs/"+st.ID+"/events", true)
	var indices []int
	for _, f := range frames {
		if f.kind != serve.EventScenario {
			continue
		}
		var ev serve.ScenarioEvent
		if err := json.Unmarshal(f.data, &ev); err != nil {
			t.Fatal(err)
		}
		indices = append(indices, ev.Index)
	}
	// Both rows arrive — index 0 from replay (it finished before the
	// subscription), index 1 live — in that order.
	if len(indices) != 2 || indices[0] != 0 || indices[1] != 1 {
		t.Fatalf("late subscriber saw scenario indices %v, want [0 1]", indices)
	}
	var last serve.JobStatus
	if err := json.Unmarshal(frames[len(frames)-1].data, &last); err != nil {
		t.Fatal(err)
	}
	if last.State != serve.JobDone {
		t.Errorf("stream ended in state %s", last.State)
	}
}

// TestMetricsEndpoint pins the exposition's load-bearing series.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{QueueCapacity: 7})
	st := submit(t, ts.URL, `{"scenarios":[
		{"profile":"429.mcf","scale":0.05},{"profile":"470.lbm","scale":0.05}]}`,
		http.StatusAccepted)
	waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })

	body := string(fetch(t, ts.URL+"/metrics", 200, "text/plain"))
	for _, line := range []string{
		`darco_jobs{state="done"} 1`,
		`darco_jobs{state="queued"} 0`,
		`darco_jobs{state="interrupted"} 0`,
		"darco_jobs_total 1",
		"darco_scenarios_total 2",
		"darco_scenarios_completed_total 2",
		"darco_scenarios_failed_total 0",
		"darco_event_subscribers 0",
		"darco_queue_depth 0",
		"darco_queue_capacity 7",
		"darco_workers 1",
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("metrics exposition missing %q:\n%s", line, body)
		}
	}
}

// TestGracefulStopRequeuesQueued: over a durable store a graceful stop
// must not lose more work than a crash. The job that was running ends
// cancelled with its finished rows kept, a queued job its client had
// cancelled stays cancelled, and a job that was merely waiting is left
// queued in the journal and runs to done on the next start.
func TestGracefulStopRequeuesQueued(t *testing.T) {
	dir := t.TempDir()
	opts := serve.Options{Workers: 1, MaxParallelism: 1, QueueCapacity: 4}

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o1 := opts
	o1.Store = st1
	srv1 := serve.New(o1)
	ts1 := httptest.NewServer(srv1)
	running := submit(t, ts1.URL, `{"scenarios":[
		{"profile":"429.mcf","scale":0.05},{"profile":"429.mcf","scale":5}]}`, http.StatusAccepted)
	waitState(t, ts1.URL, running.ID, func(s serve.JobStatus) bool {
		return s.State == serve.JobRunning && s.Completed >= 1
	})
	waiting := submit(t, ts1.URL, `{"name":"patient","scenarios":[{"profile":"470.lbm","scale":0.05}]}`, http.StatusAccepted)
	unwanted := submit(t, ts1.URL, `{"scenarios":[{"profile":"470.lbm","scale":0.05}]}`, http.StatusAccepted)
	fetchCancel(t, ts1.URL, unwanted.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// Still serving until the listener closes.
	if st := getStatus(t, ts1.URL, waiting.ID); st.State != serve.JobQueued {
		t.Errorf("waiting job is %s after the stop, want still queued", st.State)
	}
	select {
	case <-testutil.FollowEvents(t, ts1.URL+"/api/v1/jobs/"+waiting.ID).Lines:
	case <-time.After(30 * time.Second):
		t.Error("the stopped daemon left the waiting job's stream open")
	}
	preCSV := fetch(t, ts1.URL+"/api/v1/jobs/"+running.ID+"/export.csv", 200, "")
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2 := opts
	o2.Store = st2
	srv2 := serve.New(o2)
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := st2.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})

	if st := getStatus(t, ts2.URL, running.ID); st.State != serve.JobCancelled {
		t.Errorf("job that was running restored as %s, want cancelled", st.State)
	}
	csv := fetch(t, ts2.URL+"/api/v1/jobs/"+running.ID+"/export.csv", 200, "")
	if !bytes.Equal(csv, preCSV) || !strings.Contains(strings.Split(string(csv), "\n")[1], ",ok,") {
		t.Errorf("cancelled job's rows not preserved across the restart:\n%s\nvs before it:\n%s", csv, preCSV)
	}
	if st := getStatus(t, ts2.URL, unwanted.ID); st.State != serve.JobCancelled || !strings.Contains(st.Error, "cancelled while queued") {
		t.Errorf("client-cancelled job restored as %s (%s)", st.State, st.Error)
	}
	done := waitState(t, ts2.URL, waiting.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if done.State != serve.JobDone || done.Name != "patient" {
		t.Fatalf("waiting job ended %s (%s) after the restart, want done", done.State, done.Error)
	}
}
