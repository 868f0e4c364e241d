package serve_test

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darco/internal/testutil"
	"darco/serve"
	"darco/store"
)

var updatePins = flag.Bool("update", false, "re-record the pinned sequences and exports under testdata")

// pinBlocker occupies the daemon's only worker so the pinned job can be
// subscribed to while it is still queued: every frame of its life then
// reaches the stream live, in publish order, with nothing decided by
// who won the race to the first state frame.
const pinBlocker = `{"name":"blocker","scenarios":[{"profile":"429.mcf","scale":5}],"telemetry":{"disable":true}}`

// pinBody is the fixed submission the sequences are recorded for: two
// explicit scenarios, serial, telemetry on. slowFirst stretches the
// first scenario so a cancel can land inside it.
func pinBody(slowFirst bool) string {
	scale := "0.05"
	if slowFirst {
		scale = "5"
	}
	return `{"name":"pinned","parallelism":1,"scenarios":[` +
		`{"profile":"429.mcf","scale":` + scale + `,"name":"first"},` +
		`{"profile":"470.lbm","scale":0.05,"name":"second"}],` +
		`"telemetry":{"interval_insns":50000}}`
}

// TestPinnedLifecycle pins, for one fixed submission, every journaling
// point and every stream frame of a job's life in order — for a run to
// done, a cancel while queued and a cancel while running. The goldens
// were recorded on the daemon as it was before the job kernel was
// extracted; they hold what "unchanged" means for it.
func TestPinnedLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name      string
		slowFirst bool
		// act drives the pinned job once it is queued behind the blocker
		// and its stream is open.
		act func(t *testing.T, base, blocker, pinned string, ef *testutil.EventFollower)
	}{
		{"lifecycle_done", false, func(t *testing.T, base, blocker, pinned string, ef *testutil.EventFollower) {
			fetchCancel(t, base, blocker)
		}},
		{"lifecycle_cancel_queued", false, func(t *testing.T, base, blocker, pinned string, ef *testutil.EventFollower) {
			fetchCancel(t, base, pinned)
			fetchCancel(t, base, blocker)
		}},
		{"lifecycle_cancel_running", true, func(t *testing.T, base, blocker, pinned string, ef *testutil.EventFollower) {
			fetchCancel(t, base, blocker)
			select {
			case <-ef.Telemetry:
			case <-time.After(60 * time.Second):
				t.Fatal("the pinned job never streamed a telemetry window")
			}
			fetchCancel(t, base, pinned)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.New(serve.Options{Workers: 1, MaxParallelism: 1, QueueCapacity: 4, Store: st})
			ts := httptest.NewServer(srv)
			defer func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
				if err := st.Close(); err != nil {
					t.Errorf("store close: %v", err)
				}
			}()

			blocker := submit(t, ts.URL, pinBlocker, http.StatusAccepted)
			waitState(t, ts.URL, blocker.ID, func(s serve.JobStatus) bool { return s.State == serve.JobRunning })
			pinned := submit(t, ts.URL, pinBody(tc.slowFirst), http.StatusAccepted)
			ef := testutil.FollowEvents(t, ts.URL+"/api/v1/jobs/"+pinned.ID)
			select {
			case <-ef.Opened:
			case <-time.After(60 * time.Second):
				t.Fatal("the pinned job's stream never opened")
			}
			tc.act(t, ts.URL, blocker.ID, pinned.ID, ef)

			var frames []string
			select {
			case frames = <-ef.Lines:
			case <-time.After(120 * time.Second):
				t.Fatal("the pinned job's stream never ended")
			}
			journal := testutil.JournalLines(t, st, pinned.ID)
			if tc.slowFirst {
				journal, frames = testutil.DropTelemetry(journal), testutil.DropTelemetry(frames)
			}
			testutil.CheckGolden(t, filepath.Join("testdata", tc.name+".golden"),
				testutil.PinnedSequences(journal, frames), *updatePins,
				"go test ./serve -run TestPinnedLifecycle -update")
		})
	}
}

// TestRecoveryThreeFates opens a journal written record by record (the
// same one sched's test of this name opens) holding a job in every
// state a restart can find: the finished one is served byte for byte,
// the mid-run one lands interrupted with its journaled row kept, the
// queued one runs, and the one its client cancelled stays cancelled.
// The exports were recorded on the daemon as it was before the job
// kernel was extracted.
func TestRecoveryThreeFates(t *testing.T) {
	dir := t.TempDir()
	testutil.WriteFatesJournal(t, dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := serve.New(serve.Options{Store: st})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	golden := func(job, path, file string) {
		t.Helper()
		testutil.CheckGolden(t, filepath.Join("testdata", file), fetch(t, ts.URL+"/api/v1/jobs/"+job+path, 200, ""),
			*updatePins, "go test ./serve -run TestRecoveryThreeFates -update")
	}
	stream := func(job string) string {
		t.Helper()
		select {
		case lines := <-testutil.FollowEvents(t, ts.URL+"/api/v1/jobs/"+job).Lines:
			return strings.Join(lines, ",")
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: the restored stream never ended", job)
			return ""
		}
	}

	if st := getStatus(t, ts.URL, "job-1"); st.State != serve.JobDone || st.Completed != 2 || st.Name != "fates" {
		t.Errorf("finished job restored as %+v", st)
	}
	golden("job-1", "/export.csv", "fates_done.csv")
	golden("job-1", "/export.json?wall=1", "fates_done_wall.json")
	if got, want := stream("job-1"), "state done,telemetry 0,scenario 0,scenario 1,state done"; got != want {
		t.Errorf("finished job replays %s, want %s", got, want)
	}

	if st := getStatus(t, ts.URL, "job-2"); st.State != serve.JobInterrupted || st.Completed != 1 || st.Failed != 0 {
		t.Errorf("mid-run job restored as %+v", st)
	}
	golden("job-2", "/export.csv", "fates_interrupted.csv")
	if got, want := stream("job-2"), "state interrupted,scenario 0,scenario 1,state interrupted"; got != want {
		t.Errorf("mid-run job replays %s, want %s", got, want)
	}

	if st := waitState(t, ts.URL, "job-3", func(s serve.JobStatus) bool { return s.State.Terminal() }); st.State != serve.JobDone {
		t.Errorf("queued job ended %s (%s)", st.State, st.Error)
	}

	if st := getStatus(t, ts.URL, "job-4"); st.State != serve.JobCancelled {
		t.Errorf("client-cancelled job restored as %+v", st)
	}
	golden("job-4", "/export.csv", "fates_cancelled.csv")
	if got, want := stream("job-4"), "state cancelled,scenario 0,scenario 1,state cancelled"; got != want {
		t.Errorf("client-cancelled job replays %s, want %s", got, want)
	}
}
