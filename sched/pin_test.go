package sched_test

import (
	"flag"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darco/internal/testutil"
	"darco/sched"
	"darco/serve"
)

var updatePins = flag.Bool("update", false, "re-record the pinned sequences and exports under testdata")

// TestPinnedLifecycle pins, for one fixed submission over one worker,
// every journaling point and every stream frame of a federated job's
// life in order — for a run to done, a cancel while queued and a cancel
// while running. The goldens were recorded on the coordinator as it was
// before the job kernel was extracted; they hold what "unchanged" means
// for it.
func TestPinnedLifecycle(t *testing.T) {
	for _, name := range testutil.PinnedCases {
		t.Run(name, func(t *testing.T) {
			_, wts := newWorker(t, serve.Options{Workers: 2, MaxParallelism: 1, QueueCapacity: 8})
			st, _ := openStore(t, t.TempDir())
			_, coord := newCoordinator(t, sched.Options{Workers: []string{wts.URL}, Jobs: 1, Store: st})
			testutil.CheckGolden(t, filepath.Join("testdata", name+".golden"),
				testutil.RunPinnedCase(t, coord.URL, st, name), *updatePins,
				"go test ./sched -run TestPinnedLifecycle -update")
		})
	}
}

// TestRecoveryThreeFates opens the journal serve's test of this name
// opens, under a coordinator: the finished job is served byte for byte,
// the mid-run one — no shard plan journaled — is resumed with its
// journaled row kept and the other scenario run, the queued one runs,
// and the one its client cancelled stays cancelled. The exports were
// recorded on the coordinator as it was before the job kernel was
// extracted.
func TestRecoveryThreeFates(t *testing.T) {
	_, wts := newWorker(t, serve.Options{Workers: 2, QueueCapacity: 8})
	dir := t.TempDir()
	testutil.WriteFatesJournal(t, dir)
	st, _ := openStore(t, dir)
	_, coord := newCoordinator(t, sched.Options{Workers: []string{wts.URL}, Store: st})

	golden := func(job, path, file string) {
		t.Helper()
		testutil.CheckGolden(t, filepath.Join("testdata", file), fetch(t, coord.URL+"/api/v1/jobs/"+job+path, http.StatusOK, ""),
			*updatePins, "go test ./sched -run TestRecoveryThreeFates -update")
	}
	stream := func(job string) string {
		t.Helper()
		select {
		case lines := <-testutil.FollowEvents(t, coord.URL+"/api/v1/jobs/"+job).Lines:
			return strings.Join(lines, ",")
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: the restored stream never ended", job)
			return ""
		}
	}
	ended := func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded }

	if st := getStatus(t, coord.URL, "job-1"); st.State != serve.JobDone || st.Completed != 2 || st.Name != "fates" {
		t.Errorf("finished job restored as %+v", st)
	}
	golden("job-1", "/export.csv", "fates_done.csv")
	golden("job-1", "/export.json?wall=1", "fates_done_wall.json")
	if got, want := stream("job-1"), "state done,telemetry 0,scenario 0,scenario 1,state done"; got != want {
		t.Errorf("finished job replays %s, want %s", got, want)
	}

	if st := waitState(t, coord.URL, "job-2", ended); st.State != serve.JobDone || st.Completed != 2 || st.Failed != 0 {
		t.Errorf("mid-run job ended %+v", st)
	}
	csv := strings.Split(string(fetch(t, coord.URL+"/api/v1/jobs/job-2/export.csv", http.StatusOK, "")), "\n")
	want := strings.Split(string(fetch(t, coord.URL+"/api/v1/jobs/job-1/export.csv", http.StatusOK, "")), "\n")
	if len(csv) != 4 || csv[1] != want[1] || !strings.HasPrefix(csv[2], "second,SPECFP2006,0.05,ok,") || csv[2] == want[2] {
		t.Errorf("resumed job did not keep its journaled row and run the other:\n%s", strings.Join(csv, "\n"))
	}

	if st := waitState(t, coord.URL, "job-3", ended); st.State != serve.JobDone {
		t.Errorf("queued job ended %s (%s)", st.State, st.Error)
	}

	if st := getStatus(t, coord.URL, "job-4"); st.State != serve.JobCancelled {
		t.Errorf("client-cancelled job restored as %+v", st)
	}
	golden("job-4", "/export.csv", "fates_cancelled.csv")
	if got, want := stream("job-4"), "state cancelled,scenario 0,scenario 1,state cancelled"; got != want {
		t.Errorf("client-cancelled job replays %s, want %s", got, want)
	}
}
