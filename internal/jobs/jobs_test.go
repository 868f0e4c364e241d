package jobs_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"darco/export"
	"darco/internal/jobs"
	"darco/internal/testutil"
	"darco/store"
	"darco/telemetry"
)

// fakeRunner is a Runner with no engine and no fleet behind it: it
// validates with the shared parser alone and runs whatever the test
// scripted. That the kernel can be driven end to end by it is what the
// interface is for.
type fakeRunner struct {
	run    func(ctx context.Context, j *jobs.Job) jobs.Outcome
	resume func(h *store.JobHistory) (*jobs.Plan, error)
}

func (f *fakeRunner) Validate(raw []byte, restored bool) (*jobs.Plan, error) {
	req, err := jobs.ParseSubmit(raw)
	if err != nil {
		return nil, err
	}
	roster, err := req.Roster()
	if err != nil {
		return nil, err
	}
	return &jobs.Plan{Name: req.Name, Roster: roster, Spec: "compiled"}, nil
}

func (f *fakeRunner) Run(ctx context.Context, j *jobs.Job) jobs.Outcome { return f.run(ctx, j) }

func (f *fakeRunner) Resume(h *store.JobHistory) (*jobs.Plan, error) {
	if f.resume == nil {
		return nil, errors.New("the fake cannot resume")
	}
	return f.resume(h)
}

// okRow is the row a fake run commits for a scenario that succeeded.
func okRow(j *jobs.Job, i int) export.Row {
	return export.Row{Scenario: j.Roster[i].Profile.Name, Suite: j.Roster[i].Profile.Suite, Scale: 1, GuestInsns: 1000,
		Overhead: map[string]uint64{}, WallMS: 7}
}

// runAll commits an ok row at every index and ends done.
func runAll(ctx context.Context, j *jobs.Job) jobs.Outcome {
	for i := range j.Roster {
		j.Commit(i, okRow(j, i))
	}
	return jobs.Outcome{State: jobs.JobDone, Parallelism: 1}
}

// untilCancelled commits row 0, reports it on started (if non-nil),
// then runs until its context ends and reports the cancellation.
func untilCancelled(started chan<- string) func(context.Context, *jobs.Job) jobs.Outcome {
	return func(ctx context.Context, j *jobs.Job) jobs.Outcome {
		j.Commit(0, okRow(j, 0))
		if started != nil {
			started <- j.ID
		}
		<-ctx.Done()
		return jobs.Outcome{State: jobs.JobCancelled, Err: fmt.Errorf("cancelled: %w", ctx.Err()), Parallelism: 1}
	}
}

const twoScenarios = `{"name":"two","scenarios":[{"profile":"429.mcf"},{"profile":"470.lbm"}]}`

// harness is one kernel behind httptest.
type harness struct {
	t  *testing.T
	k  *jobs.Kernel
	ts *httptest.Server
}

func start(t *testing.T, cfg jobs.Config) *harness {
	t.Helper()
	cfg.MetricPrefix = "fake"
	cfg.Service = "fake-1"
	cfg.Log = testutil.Slogger(t)
	k := jobs.New(cfg)
	k.Start()
	h := &harness{t: t, k: k, ts: httptest.NewServer(k)}
	t.Cleanup(func() {
		h.stop()
		h.ts.Close()
	})
	return h
}

// stop shuts the kernel down gracefully; it keeps answering requests,
// as a daemon does until its listener closes. Safe to call twice.
func (h *harness) stop() {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.k.Shutdown(ctx); err != nil {
		h.t.Errorf("shutdown: %v", err)
	}
}

func (h *harness) do(method, path, body string) (int, http.Header, []byte) {
	h.t.Helper()
	req, err := http.NewRequest(method, h.ts.URL+path, strings.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw
}

func (h *harness) submit(body string, want int) jobs.JobStatus {
	h.t.Helper()
	code, _, raw := h.do("POST", "/api/v1/jobs", body)
	if code != want {
		h.t.Fatalf("submit: status %d, want %d: %s", code, want, raw)
	}
	var st jobs.JobStatus
	if want == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			h.t.Fatal(err)
		}
		if st.State != jobs.JobQueued {
			h.t.Errorf("202 body says %s, want the status at acceptance: queued", st.State)
		}
	}
	return st
}

func (h *harness) get(path string, want int) []byte {
	h.t.Helper()
	code, _, raw := h.do("GET", path, "")
	if code != want {
		h.t.Fatalf("GET %s: status %d, want %d: %s", path, code, want, raw)
	}
	return raw
}

func (h *harness) status(id string) jobs.JobStatus {
	h.t.Helper()
	var st jobs.JobStatus
	if err := json.Unmarshal(h.get("/api/v1/jobs/"+id, 200), &st); err != nil {
		h.t.Fatal(err)
	}
	return st
}

func (h *harness) wait(id string, pred func(jobs.JobStatus) bool) jobs.JobStatus {
	h.t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := h.status(id); pred(st) {
			return st
		}
	}
	h.t.Fatalf("job %s never got there (last: %+v)", id, h.status(id))
	return jobs.JobStatus{}
}

func (h *harness) cancel(id string) {
	h.t.Helper()
	if code, _, raw := h.do("POST", "/api/v1/jobs/"+id+"/cancel", ""); code != 200 {
		h.t.Fatalf("cancel %s: status %d: %s", id, code, raw)
	}
}

// stream follows a job's events to the end of the stream. State frames
// are idempotent snapshots — a subscriber that joins between a
// transition and its frame sees the state twice — so runs of one frame
// are collapsed.
func (h *harness) stream(id string) string {
	h.t.Helper()
	select {
	case lines := <-testutil.FollowEvents(h.t, h.ts.URL+"/api/v1/jobs/"+id).Lines:
		return strings.Join(slices.Compact(lines), ",")
	case <-time.After(30 * time.Second):
		h.t.Fatalf("%s: the stream never ended", id)
		return ""
	}
}

func terminal(st jobs.JobStatus) bool { return st.State.Terminal() }

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestLifecycleOutcomes: accept → run → whatever terminal state the
// Runner reports, the coordinator-only one included. Indices the run
// left uncommitted are sealed with its error and counted.
func TestLifecycleOutcomes(t *testing.T) {
	boom := errors.New("pool exhausted")
	for _, tc := range []struct {
		name               string
		run                func(context.Context, *jobs.Job) jobs.Outcome
		state              jobs.JobState
		completed, failed  int
		secondRow, journal string
	}{
		{"done", runAll, jobs.JobDone, 2, 0, ",ok,",
			"submitted,span queue-wait,started,row 0,row 1,span run,span job job-1,finished"},
		{"failed", func(ctx context.Context, j *jobs.Job) jobs.Outcome {
			j.Commit(1, export.Row{Scenario: "470.lbm", Error: "budget exhausted", Overhead: map[string]uint64{}})
			j.Commit(0, okRow(j, 0))
			return jobs.Outcome{State: jobs.JobFailed, Err: errors.New("1 of 2 scenarios failed"), Parallelism: 2}
		}, jobs.JobFailed, 2, 1, "error: budget exhausted",
			"submitted,span queue-wait,started,row 1,row 0,span run,span job job-1,finished"},
		{"degraded", func(ctx context.Context, j *jobs.Job) jobs.Outcome {
			j.Commit(0, okRow(j, 0))
			return jobs.Outcome{State: jobs.JobDegraded, Err: boom, Parallelism: 1}
		}, jobs.JobDegraded, 2, 1, "error: pool exhausted",
			"submitted,span queue-wait,started,row 0,row 1,span run,span job job-1,finished"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := openStore(t, t.TempDir())
			h := start(t, jobs.Config{Runner: &fakeRunner{run: tc.run}, Store: st})
			acc := h.submit(twoScenarios, http.StatusAccepted)
			if acc.ID != "job-1" || acc.Name != "two" || acc.Scenarios != 2 {
				t.Errorf("accepted: %+v", acc)
			}
			final := h.wait(acc.ID, terminal)
			if final.State != tc.state || final.Completed != tc.completed || final.Failed != tc.failed ||
				final.StartedAt == nil || final.FinishedAt == nil {
				t.Errorf("final status: %+v", final)
			}
			csv := strings.Split(string(h.get("/api/v1/jobs/job-1/export.csv", 200)), "\n")
			if len(csv) != 4 || !strings.Contains(csv[1], ",ok,") || !strings.Contains(csv[2], tc.secondRow) {
				t.Errorf("export.csv:\n%s", strings.Join(csv, "\n"))
			}
			if got := strings.Join(testutil.JournalLines(t, st, "job-1"), ","); got != tc.journal {
				t.Errorf("journal:\n%s\nwant:\n%s", got, tc.journal)
			}
			metrics := string(h.get("/metrics", 200))
			for _, line := range []string{fmt.Sprintf(`fake_jobs{state=%q} 1`, tc.state), "fake_jobs_total 1",
				"fake_scenarios_total 2", fmt.Sprintf("fake_scenarios_failed_total %d", tc.failed), "fake_job_queue_wait_seconds_count 1"} {
				if !strings.Contains(metrics, line+"\n") {
					t.Errorf("metrics missing %q", line)
				}
			}
			if err := testutil.ValidatePrometheus([]byte(metrics)); err != nil {
				t.Errorf("exposition invalid: %v", err)
			}
			// A late subscriber to the terminal job replays its rows.
			if got, want := h.stream("job-1"), fmt.Sprintf("state %s,scenario", tc.state); !strings.HasPrefix(got, want) {
				t.Errorf("terminal stream: %s", got)
			}
		})
	}
}

// TestCancel: a cancel while queued ends the job without running it,
// every row synthesized; a cancel while running ends it with what it
// had committed kept. Either way the request is journaled once.
func TestCancel(t *testing.T) {
	st := openStore(t, t.TempDir())
	started := make(chan string, 2)
	h := start(t, jobs.Config{Runner: &fakeRunner{run: untilCancelled(started)}, Store: st})
	running := h.submit(twoScenarios, http.StatusAccepted)
	<-started
	queued := h.submit(twoScenarios, http.StatusAccepted)

	h.cancel(queued.ID)
	h.cancel(queued.ID)
	if got := h.status(queued.ID); got.State != jobs.JobQueued {
		t.Errorf("cancelled-but-unpopped job is %s, want still queued", got.State)
	}
	if code, _, raw := h.do("DELETE", "/api/v1/jobs/"+running.ID, ""); code != 200 {
		t.Fatalf("DELETE: status %d: %s", code, raw)
	}

	got := h.wait(running.ID, terminal)
	if got.State != jobs.JobCancelled || got.Completed != 2 || got.Failed != 1 || !strings.Contains(got.Error, "context canceled") {
		t.Errorf("cancelled while running: %+v", got)
	}
	if want, got := "submitted,span queue-wait,started,row 0,cancel_requested,row 1,span run,span job job-1,finished",
		strings.Join(testutil.JournalLines(t, st, running.ID), ","); got != want {
		t.Errorf("running job's journal:\n%s\nwant:\n%s", got, want)
	}

	got = h.wait(queued.ID, terminal)
	if got.State != jobs.JobCancelled || got.Completed != 2 || got.Failed != 2 || got.StartedAt != nil ||
		!strings.Contains(got.Error, "cancelled while queued") {
		t.Errorf("cancelled while queued: %+v", got)
	}
	if want, got := "submitted,cancel_requested,row 0,row 1,span job job-2,finished",
		strings.Join(testutil.JournalLines(t, st, queued.ID), ","); got != want {
		t.Errorf("queued job's journal:\n%s\nwant:\n%s", got, want)
	}
	select {
	case id := <-started:
		t.Errorf("%s ran although it was cancelled while queued", id)
	default:
	}
	// Cancelling a terminal job changes nothing and journals nothing.
	h.cancel(queued.ID)
	if n := len(testutil.JournalLines(t, st, queued.ID)); n != 6 {
		t.Errorf("cancel of a terminal job journaled: %d records", n)
	}
	h.get("/api/v1/jobs/job-9", http.StatusNotFound)
}

// TestTerminalStatusIsJournaled: the terminal record is journaled
// before the status turns terminal (write-ahead), so a client that polls
// a job to its end finds the journal already ending in finished. Many
// short jobs, each polled without pause while it runs, give the window
// between the two every chance to show.
func TestTerminalStatusIsJournaled(t *testing.T) {
	st := openStore(t, t.TempDir())
	run := func(ctx context.Context, j *jobs.Job) jobs.Outcome {
		time.Sleep(time.Millisecond)
		return runAll(ctx, j)
	}
	h := start(t, jobs.Config{Runner: &fakeRunner{run: run}, Store: st})
	const body = `{"scenarios":[{"profile":"429.mcf"}]}`
	for i := 0; i < 50; i++ {
		id := h.submit(body, http.StatusAccepted).ID
		for deadline := time.Now().Add(30 * time.Second); !h.status(id).State.Terminal(); {
			if time.Now().After(deadline) {
				t.Fatalf("%s never ended", id)
			}
		}
		if lines := testutil.JournalLines(t, st, id); lines[len(lines)-1] != "finished" {
			t.Fatalf("%s reads terminal, journal is %s", id, strings.Join(lines, ","))
		}
	}
}

// TestQueueFull: a submission the queue has no room for leaves nothing
// behind — not in the registry, not in the journal, not in the id
// sequence — and a stopped kernel answers 503.
func TestQueueFull(t *testing.T) {
	st := openStore(t, t.TempDir())
	started := make(chan string, 4)
	h := start(t, jobs.Config{Runner: &fakeRunner{run: untilCancelled(started)}, Store: st, QueueCapacity: 1})
	h.submit(twoScenarios, http.StatusAccepted)
	<-started
	h.submit(twoScenarios, http.StatusAccepted)
	for i := 0; i < 3; i++ {
		code, hdr, raw := h.do("POST", "/api/v1/jobs", twoScenarios)
		if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" || !strings.Contains(string(raw), "queue is full") {
			t.Fatalf("submission over capacity: %d %v %s", code, hdr, raw)
		}
	}
	var list []jobs.JobStatus
	if err := json.Unmarshal(h.get("/api/v1/jobs", 200), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || len(st.Jobs()) != 2 || h.k.JobCount() != 2 || h.k.QueueDepth() != 1 {
		t.Errorf("after three rejections: %d listed, %d journaled, %d registered, depth %d",
			len(list), len(st.Jobs()), h.k.JobCount(), h.k.QueueDepth())
	}
	h.get("/api/v1/jobs/job-3", http.StatusNotFound)

	h.cancel("job-1")
	if id := <-started; id != "job-2" {
		t.Fatalf("%s started, want job-2", id)
	}
	if third := h.submit(twoScenarios, http.StatusAccepted); third.ID != "job-3" {
		t.Errorf("next accepted job is %s, want job-3", third.ID)
	}
	// Bad bodies and unknown ?state= values are the client's fault.
	h.submit(`{"scenarios":[{"profile":"nope"}]}`, http.StatusBadRequest)
	h.submit(`{"name":"`+strings.Repeat("x", 2<<20)+`"}`, http.StatusRequestEntityTooLarge)
	h.get("/api/v1/jobs?state=bogus", http.StatusBadRequest)
	if err := json.Unmarshal(h.get("/api/v1/jobs?state=queued,degraded", 200), &list); err != nil || len(list) != 1 || list[0].ID != "job-3" {
		t.Errorf("?state=queued,degraded: %+v (%v)", list, err)
	}

	h.stop()
	h.submit(twoScenarios, http.StatusServiceUnavailable)
}

// TestStopNeverStartsQueued: a stop cancels every job's context at
// once, but the cancellation reaches the jobs one at a time. The worker
// that the running job frees must not start the queued job in that gap:
// each round here must end with the queued job never run.
func TestStopNeverStartsQueued(t *testing.T) {
	for round := 0; round < 200; round++ {
		started := make(chan string, 2)
		h := start(t, jobs.Config{Runner: &fakeRunner{run: untilCancelled(started)}})
		h.submit(twoScenarios, http.StatusAccepted)
		<-started
		h.submit(twoScenarios, http.StatusAccepted)
		h.stop()
		if got := h.status("job-2"); !strings.Contains(got.Error, "cancelled while queued") {
			t.Fatalf("round %d: the queued job ran after the stop: %+v", round, got)
		}
		h.ts.Close()
	}
}

// TestShutdownWhileQueued is the stop-versus-cancel rule: the daemon's
// own stop ends a job that has not started only when there is no
// journal to carry it to the next start.
func TestShutdownWhileQueued(t *testing.T) {
	t.Run("with a store it stays queued and runs after the restart", func(t *testing.T) {
		dir := t.TempDir()
		st := openStore(t, dir)
		started := make(chan string, 2)
		h := start(t, jobs.Config{Runner: &fakeRunner{run: untilCancelled(started)}, Store: st})
		h.submit(twoScenarios, http.StatusAccepted)
		<-started
		h.submit(twoScenarios, http.StatusAccepted)
		h.stop()
		if got := h.status("job-1"); got.State != jobs.JobCancelled {
			t.Errorf("running job is %s after the stop, want cancelled", got.State)
		}
		if got := h.status("job-2"); got.State != jobs.JobQueued {
			t.Errorf("queued job is %s after the stop, want still queued", got.State)
		}
		if got := h.stream("job-2"); got != "state queued" {
			t.Errorf("queued job's stream after the stop: %s", got)
		}
		if got := strings.Join(testutil.JournalLines(t, st, "job-2"), ","); got != "submitted" {
			t.Errorf("queued job's journal after the stop: %s", got)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		h2 := start(t, jobs.Config{Runner: &fakeRunner{run: runAll}, Store: openStore(t, dir)})
		if rec := h2.k.Recovered(); rec != (jobs.Recovered{Terminal: 1, Requeued: 1}) {
			t.Errorf("recovered %+v", rec)
		}
		if got := h2.wait("job-2", terminal); got.State != jobs.JobDone {
			t.Errorf("re-queued job ended %s (%s)", got.State, got.Error)
		}
	})
	t.Run("without one it is cancelled", func(t *testing.T) {
		started := make(chan string, 2)
		h := start(t, jobs.Config{Runner: &fakeRunner{run: untilCancelled(started)}})
		h.submit(twoScenarios, http.StatusAccepted)
		<-started
		h.submit(twoScenarios, http.StatusAccepted)
		h.stop()
		if got := h.status("job-2"); got.State != jobs.JobCancelled || !strings.Contains(got.Error, "cancelled while queued") {
			t.Errorf("queued job after a store-less stop: %+v", got)
		}
		if got := h.stream("job-2"); got != "state cancelled,scenario 0,scenario 1,state cancelled" {
			t.Errorf("queued job's stream after the stop: %s", got)
		}
	})
}

// snapshot is everything a restored job serves that must not move
// between one restart and the next.
func snapshot(h *harness, id string) string {
	return string(h.get("/api/v1/jobs/"+id, 200)) +
		string(h.get("/api/v1/jobs/"+id+"/export.csv", 200)) +
		string(h.get("/api/v1/jobs/"+id+"/export.json?wall=1", 200)) + h.stream(id)
}

// TestRestartFates restores the journal both daemons' tests open, with
// a job in every state a restart can find, under a Runner that cannot
// resume and under one that can — and restarts once more: what the
// first restart served, the second serves byte for byte.
func TestRestartFates(t *testing.T) {
	t.Run("not resumable", func(t *testing.T) {
		dir := t.TempDir()
		testutil.WriteFatesJournal(t, dir)
		var first [3]string
		for restart := 1; restart <= 2; restart++ {
			st := openStore(t, dir)
			h := start(t, jobs.Config{Runner: &fakeRunner{run: runAll}, Store: st})
			want := jobs.Recovered{Terminal: 3, Requeued: 1}
			if restart == 2 {
				want = jobs.Recovered{Terminal: 5} // and the job-5 restart 1 accepted
			}
			if rec := h.k.Recovered(); rec != want {
				t.Errorf("restart %d recovered %+v, want %+v", restart, rec, want)
			}
			for id, state := range map[string]jobs.JobState{"job-1": jobs.JobDone, "job-2": jobs.JobInterrupted, "job-4": jobs.JobCancelled} {
				if got := h.status(id); got.State != state {
					t.Errorf("restart %d: %s restored %s (%s), want %s", restart, id, got.State, got.Error, state)
				}
			}
			// The counters count the job's rows, the one the restart
			// synthesized included — at this restart and the next (the
			// snapshots below hold the whole status JSON equal).
			if got := h.status("job-2"); !strings.Contains(got.Error, "interrupted: the fake cannot resume") ||
				got.Completed != got.Scenarios || got.Failed != 1 {
				t.Errorf("restart %d: interrupted job: %+v", restart, got)
			}
			if got := h.wait("job-3", terminal); got.State != jobs.JobDone {
				t.Errorf("restart %d: queued job ended %s (%s)", restart, got.State, got.Error)
			}
			for i, id := range []string{"job-1", "job-2", "job-4"} {
				if got := snapshot(h, id); restart == 1 {
					first[i] = got
				} else if got != first[i] {
					t.Errorf("%s changed between restarts:\n%s\nvs:\n%s", id, got, first[i])
				}
			}
			if restart == 1 {
				if got, want := h.stream("job-2"), "state interrupted,scenario 0,scenario 1,state interrupted"; got != want {
					t.Errorf("interrupted job replays %s, want %s", got, want)
				}
				if got, want := strings.Join(testutil.JournalLines(t, st, "job-4"), ","),
					"submitted,cancel_requested,row 0,row 1,finished"; got != want {
					t.Errorf("client-cancelled job's journal: %s, want %s", got, want)
				}
			}
			// The id sequence continues past restored history.
			if restart == 1 {
				if next := h.submit(twoScenarios, http.StatusAccepted); next.ID != "job-5" {
					t.Errorf("post-restart submission got id %s, want job-5", next.ID)
				}
				h.wait("job-5", terminal)
			}
			h.stop()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("resumable", func(t *testing.T) {
		dir := t.TempDir()
		testutil.WriteFatesJournal(t, dir)
		st := openStore(t, dir)
		f := &fakeRunner{run: runAll}
		f.resume = func(h *store.JobHistory) (*jobs.Plan, error) { return f.Validate(h.Request, true) }
		h := start(t, jobs.Config{Runner: f, Store: st})
		if rec := h.k.Recovered(); rec != (jobs.Recovered{Terminal: 2, Requeued: 1, Resumed: 1}) {
			t.Errorf("recovered %+v", rec)
		}
		got := h.wait("job-2", terminal)
		if got.State != jobs.JobDone || got.Completed != 2 || !got.StartedAt.Equal(time.Date(2024, 1, 2, 3, 4, 6, 0, time.UTC)) {
			t.Errorf("resumed job: %+v", got)
		}
		// The journaled row survives the re-run (Commit dedupes on index)
		// and the pickup is not journaled as a second start.
		csv := strings.Split(string(h.get("/api/v1/jobs/job-2/export.csv", 200)), "\n")
		if !strings.HasPrefix(csv[1], "first,SPECINT2006,0.05,ok,100000,") || !strings.HasPrefix(csv[2], "470.lbm,") {
			t.Errorf("resumed job's rows:\n%s", strings.Join(csv, "\n"))
		}
		if got, want := strings.Join(testutil.JournalLines(t, st, "job-2"), ","),
			"submitted,started,row 0,row 1,span run,span job job-2,finished"; got != want {
			t.Errorf("resumed job's journal: %s, want %s", got, want)
		}
		if got, want := h.stream("job-2"), "state done,scenario 0,scenario 1,state done"; got != want {
			t.Errorf("resumed job replays %s, want %s", got, want)
		}
	})
	t.Run("a queued job the restarted daemon no longer admits", func(t *testing.T) {
		dir := t.TempDir()
		st := openStore(t, dir)
		if err := st.Append(store.Record{Kind: store.KindSubmitted, Job: "job-1", Time: time.Now(),
			Submitted: &store.SubmittedRecord{Scenarios: 1, Request: json.RawMessage(`{"scenarios":[{"profile":"gone"}]}`)}}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		h := start(t, jobs.Config{Runner: &fakeRunner{run: runAll}, Store: openStore(t, dir)})
		if got := h.status("job-1"); got.State != jobs.JobFailed || !strings.Contains(got.Error, "re-queue after restart") {
			t.Errorf("inadmissible queued job: %+v", got)
		}
		if csv := string(h.get("/api/v1/jobs/job-1/export.csv", 200)); !strings.Contains(csv, "scenario-0,") {
			t.Errorf("unlabelled row expected:\n%s", csv)
		}
	})
}

// TestLateSubscriberReplay: a subscriber joining after the first row
// was committed still receives it, from the replay ring, before the
// live frames.
func TestLateSubscriberReplay(t *testing.T) {
	committed, release := make(chan struct{}), make(chan struct{})
	h := start(t, jobs.Config{Runner: &fakeRunner{run: func(ctx context.Context, j *jobs.Job) jobs.Outcome {
		j.Commit(0, okRow(j, 0))
		j.Telemetry(1, "470.lbm", telemetry.Window{Insns: 1024})
		close(committed)
		<-release
		j.Commit(1, okRow(j, 1))
		return jobs.Outcome{State: jobs.JobDone, Parallelism: 1}
	}}})
	acc := h.submit(twoScenarios, http.StatusAccepted)
	<-committed
	ef := testutil.FollowEvents(t, h.ts.URL+"/api/v1/jobs/"+acc.ID)
	<-ef.Opened
	close(release)
	if got, want := strings.Join(<-ef.Lines, ","), "state running,scenario 0,telemetry 1,scenario 1,state done,state done"; got != want {
		t.Errorf("late subscriber saw %s, want %s", got, want)
	}
}

// TestSubmitStatusAtAcceptance: with an idle worker and a run that ends
// at once, every 202 still says queued — the status is snapshotted
// under the submit lock, before a worker can pop the job. (harness.submit
// asserts it; CI repeats this test under -race.)
func TestSubmitStatusAtAcceptance(t *testing.T) {
	h := start(t, jobs.Config{Runner: &fakeRunner{run: runAll}, Workers: 2, QueueCapacity: 32})
	for i := 1; i <= 20; i++ {
		if acc := h.submit(twoScenarios, http.StatusAccepted); acc.ID != fmt.Sprintf("job-%d", i) {
			t.Fatalf("submission %d got id %s", i, acc.ID)
		}
	}
}

// TestRestoreJournalWithVectorWindows restores the fates journal as a
// daemon wrote it while telemetry windows still carried an always-zero
// "vector" counter, beside the same journal without it: the restored
// job-1 serves the same status, exports and event stream, its telemetry
// window included.
func TestRestoreJournalWithVectorWindows(t *testing.T) {
	served := map[bool]string{}
	for _, legacy := range []bool{false, true} {
		dir := t.TempDir()
		testutil.WriteFatesJournal(t, dir)
		if legacy {
			path := filepath.Join(dir, "journal.wal")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw = addVectorCounters(t, raw)
			if !bytes.Contains(raw, []byte(`"branch":124,"vector":0,"loads":200`)) {
				t.Fatal("the rewritten journal carries no vector counter")
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		h := start(t, jobs.Config{Runner: &fakeRunner{run: runAll}, Store: openStore(t, dir)})
		events := string(h.get("/api/v1/jobs/job-1/events?format=ndjson", 200))
		if !strings.Contains(events, `"simple":600,"complex":0,"memory":300,"branch":124,"loads":200`) {
			t.Errorf("legacy %v: the telemetry window is not replayed:\n%s", legacy, events)
		}
		served[legacy] = snapshot(h, "job-1") + events
		h.stop()
	}
	if served[true] != served[false] {
		t.Errorf("the journal with vector counters restores differently:\n%s\nwithout them:\n%s", served[true], served[false])
	}
}

// addVectorCounters re-frames every record of a journal with a
// `"vector":0` after each window's branch count, where the field used
// to be marshalled.
func addVectorCounters(t *testing.T, raw []byte) []byte {
	t.Helper()
	const magic = 8 // "DARCOWA1"
	out := append([]byte(nil), raw[:magic]...)
	branch := regexp.MustCompile(`("branch":\d+)`)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for rest := raw[magic:]; len(rest) > 0; {
		if len(rest) < 8 {
			t.Fatalf("torn frame header: %d bytes", len(rest))
		}
		n := binary.LittleEndian.Uint32(rest)
		payload := branch.ReplaceAll(rest[8:8+n], []byte(`$1,"vector":0`))
		rest = rest[8+n:]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
		out = append(out, payload...)
	}
	return out
}
