package serve_test

import (
	"context"
	"flag"
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

// TestPinnedLifecycle pins, for one fixed submission, every journaling
// point and every stream frame of a job's life in order — for a run to
// done, a cancel while queued and a cancel while running. The goldens
// were recorded on the daemon as it was before the job kernel was
// extracted; they hold what "unchanged" means for it.
func TestPinnedLifecycle(t *testing.T) {
	for _, name := range testutil.PinnedCases {
		t.Run(name, func(t *testing.T) {
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
			testutil.CheckGolden(t, filepath.Join("testdata", name+".golden"),
				testutil.RunPinnedCase(t, ts.URL, st, name), *updatePins,
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

	if st := getStatus(t, ts.URL, "job-2"); st.State != serve.JobInterrupted || st.Completed != 2 || st.Failed != 1 {
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
