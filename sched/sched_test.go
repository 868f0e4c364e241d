package sched_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	darco "darco"
	"darco/internal/testutil"
	"darco/sched"
	"darco/serve"
)

// newWorker spins up one darco-served daemon behind httptest. The
// cleanup tolerates workers the test already crashed.
func newWorker(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("worker shutdown: %v", err)
		}
	})
	return s, ts
}

// crashWorker kills a worker the way SIGKILL looks from the
// coordinator: every open connection (event streams included) dies
// mid-frame and the endpoint stops accepting, with no graceful
// cancel/terminal records sent. The server machinery is then reaped so
// the test stays race- and goroutine-clean.
func crashWorker(t *testing.T, s *serve.Server, ts *httptest.Server) {
	t.Helper()
	ts.CloseClientConnections()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("post-crash reap: %v", err)
	}
}

// newCoordinator builds a Coordinator over the given worker URLs and
// serves it behind httptest.
func newCoordinator(t *testing.T, opts sched.Options) (*sched.Coordinator, *httptest.Server) {
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
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := c.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
	})
	return c, ts
}

func submit(t *testing.T, base, body string, want int) serve.JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("submit: status %d, want %d: %s", resp.StatusCode, want, raw)
	}
	var st serve.JobStatus
	if want == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("submit response: %v: %s", err, raw)
		}
	}
	return st
}

func cancelJob(t *testing.T, base, id string) {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
	}
}

func getStatus(t *testing.T, base, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d", id, resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, base, id string, pred func(serve.JobStatus) bool) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the wanted state (last: %+v)", id, getStatus(t, base, id))
	return serve.JobStatus{}
}

func fetch(t *testing.T, url string, wantCode int, wantType string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d: %s", url, resp.StatusCode, wantCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); wantType != "" && !strings.HasPrefix(ct, wantType) {
		t.Errorf("GET %s: content-type %q, want prefix %q", url, ct, wantType)
	}
	return body
}

// runReference runs the same submission on a standalone worker and
// returns its export bytes per format path.
func runReference(t *testing.T, body string, paths []string) map[string][]byte {
	t.Helper()
	_, ref := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
	st := submit(t, ref.URL, body, http.StatusAccepted)
	waitState(t, ref.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		out[p] = fetch(t, ref.URL+"/api/v1/jobs/"+st.ID+p, http.StatusOK, "")
	}
	return out
}

var exportPaths = []string{"/export.json", "/export.csv", "/export.ndjson", "/export.html"}

// TestFederatedExportsByteIdentical is the tentpole's golden test: a
// campaign sharded over three workers exports, in all four formats,
// exactly the bytes a single-node run of the same submission produces.
func TestFederatedExportsByteIdentical(t *testing.T) {
	body := `{"name":"golden","suite":{"scale":0.05},` +
		`"scenarios":[{"profile":"429.mcf","scale":0.2},{"profile":"470.lbm","scale":0.1,"name":"lbm-small"}]}`

	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newWorker(t, serve.Options{Workers: 2, QueueCapacity: 8})
		urls = append(urls, ts.URL)
	}
	_, coord := newCoordinator(t, sched.Options{Workers: urls})

	st := submit(t, coord.URL, body, http.StatusAccepted)
	if st.State != serve.JobQueued {
		t.Fatalf("accepted job state %s", st.State)
	}
	final := waitState(t, coord.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobDone {
		t.Fatalf("federated job ended %s (%s)", final.State, final.Error)
	}
	if final.Completed != final.Scenarios || final.Failed != 0 {
		t.Fatalf("federated counters: %+v", final)
	}

	want := runReference(t, body, exportPaths)
	base := coord.URL + "/api/v1/jobs/" + st.ID
	for _, p := range exportPaths {
		testutil.RequireSameBytes(t, p+" federated vs single-node", fetch(t, base+p, http.StatusOK, ""), want[p])
	}

	// ?wall=1 carries the coordinator's campaign wall and the shard
	// count as the parallelism field (per-row wall columns are zero:
	// workers stream wall-stripped rows).
	var doc struct {
		WallMS  float64 `json:"wall_ms"`
		Workers int     `json:"parallelism"`
	}
	if err := json.Unmarshal(fetch(t, base+"/export.json?wall=1", http.StatusOK, "application/json"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.WallMS <= 0 || doc.Workers != 3 {
		t.Errorf("?wall=1 campaign fields: wall_ms %g, parallelism %d (want >0, 3)", doc.WallMS, doc.Workers)
	}

	// The re-multiplexed event stream replays one scenario frame per
	// global index, each carrying the federated job id.
	resp, err := http.Get(base + "/events?format=ndjson")
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
		if ev.Job != st.ID {
			t.Errorf("scenario frame for job %s, want %s", ev.Job, st.ID)
		}
		if seen[ev.Index] {
			t.Errorf("scenario frame for index %d replayed twice", ev.Index)
		}
		seen[ev.Index] = true
	}
	if len(seen) != final.Scenarios {
		t.Errorf("event stream replayed %d scenario frames, want %d", len(seen), final.Scenarios)
	}

	// Pool surfaces: every worker probed healthy, rows attributed.
	var infos []sched.WorkerInfo
	if err := json.Unmarshal(fetch(t, coord.URL+"/api/v1/workers", http.StatusOK, "application/json"), &infos); err != nil {
		t.Fatal(err)
	}
	var rows uint64
	for _, wi := range infos {
		if !wi.Healthy || wi.ID == "" || wi.Version != darco.Version {
			t.Errorf("worker info: %+v", wi)
		}
		rows += wi.RowsGathered
	}
	if int(rows) != final.Scenarios {
		t.Errorf("workers gathered %d rows, want %d", rows, final.Scenarios)
	}

	metrics := fetch(t, coord.URL+"/metrics", http.StatusOK, "text/plain")
	for _, needle := range []string{
		`darco_sched_jobs{state="done"} 1`,
	} {
		if !strings.Contains(string(metrics), needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}

	var h sched.Health
	if err := json.Unmarshal(fetch(t, coord.URL+"/healthz", http.StatusOK, "application/json"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != darco.Version || h.WorkerID == "" || h.WorkersHealthy != 3 {
		t.Errorf("healthz: %+v", h)
	}
}

// TestFederatedFailureParity: genuinely failing scenarios (instruction
// budget exhausted on every worker, deterministically) federate like
// successes — the job ends failed and the merged exports carry the
// same error rows, byte-identical to a single-node run.
func TestFederatedFailureParity(t *testing.T) {
	body := `{"scenarios":[{"profile":"429.mcf","scale":0.1},{"profile":"470.lbm","scale":0.1},{"profile":"429.mcf","scale":0.1,"name":"again"}],` +
		`"engine":{"max_guest_insns":5000}}`

	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
		urls = append(urls, ts.URL)
	}
	_, coord := newCoordinator(t, sched.Options{Workers: urls})

	st := submit(t, coord.URL, body, http.StatusAccepted)
	final := waitState(t, coord.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobFailed {
		t.Fatalf("federated job ended %s (%s), want failed", final.State, final.Error)
	}
	if final.Failed != 3 {
		t.Fatalf("failed scenarios %d, want 3", final.Failed)
	}

	want := runReference(t, body, exportPaths)
	base := coord.URL + "/api/v1/jobs/" + st.ID
	for _, p := range exportPaths {
		testutil.RequireSameBytes(t, p+" federated vs single-node", fetch(t, base+p, http.StatusOK, ""), want[p])
	}
}

// shardJobOn finds the worker currently running a shard job whose name
// carries the given prefix, returning its pool index or -1.
func shardJobOn(t *testing.T, urls []string, prefix string) int {
	t.Helper()
	for i, u := range urls {
		resp, err := http.Get(u + "/api/v1/jobs?state=running")
		if err != nil {
			continue
		}
		var jobs []serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&jobs)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, j := range jobs {
			if strings.HasPrefix(j.Name, prefix) {
				return i
			}
		}
	}
	return -1
}

// TestWorkerKillMidCampaign is the acceptance e2e: two workers split a
// campaign, the worker holding the slow shard is SIGKILL-crashed while
// mid-scenario, the coordinator re-dispatches the missing scenarios to
// the survivor, and the merged CSV is still byte-identical to an
// unsharded run. Run under -race.
func TestWorkerKillMidCampaign(t *testing.T) {
	// Contiguous split over 2 workers: shard 0 = scenarios 0,1 (fast),
	// shard 1 = scenarios 2,3 with the slow scale-5 scenario first —
	// the kill window — serialized by parallelism 1.
	body := `{"name":"kill","parallelism":1,"scenarios":[` +
		`{"profile":"429.mcf","scale":0.1},{"profile":"470.lbm","scale":0.1},` +
		`{"profile":"429.mcf","scale":5,"name":"slow"},{"profile":"470.lbm","scale":0.1}]}`

	srvs := make([]*serve.Server, 2)
	tss := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range srvs {
		srvs[i], tss[i] = newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
		urls[i] = tss[i].URL
	}
	_, coord := newCoordinator(t, sched.Options{Workers: urls, ShardRetries: 6})

	st := submit(t, coord.URL, body, http.StatusAccepted)

	// Find which worker shard 1 landed on, then crash it while its slow
	// scenario is grinding.
	victim := -1
	deadline := time.Now().Add(60 * time.Second)
	for victim < 0 && time.Now().Before(deadline) {
		victim = shardJobOn(t, urls, st.ID+"/shard-1#")
		if victim < 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if victim < 0 {
		t.Fatal("shard 1 never showed up running on a worker")
	}
	crashWorker(t, srvs[victim], tss[victim])
	t.Logf("crashed worker %d (%s) while shard 1 ran", victim, urls[victim])

	final := waitState(t, coord.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobDone {
		t.Fatalf("federated job ended %s (%s), want done despite the crash", final.State, final.Error)
	}

	want := runReference(t, body, []string{"/export.csv"})
	testutil.RequireSameBytes(t, "merged CSV federated vs unsharded",
		fetch(t, coord.URL+"/api/v1/jobs/"+st.ID+"/export.csv", http.StatusOK, "text/csv"), want["/export.csv"])

	// The re-dispatch is visible in the pool counters: the victim is
	// unhealthy with a retry charged, and the survivor gathered rows.
	var infos []sched.WorkerInfo
	if err := json.Unmarshal(fetch(t, coord.URL+"/api/v1/workers", http.StatusOK, "application/json"), &infos); err != nil {
		t.Fatal(err)
	}
	for _, wi := range infos {
		if wi.URL == urls[victim] {
			if wi.Healthy || wi.Retries == 0 {
				t.Errorf("victim worker info: %+v", wi)
			}
		} else if wi.RowsGathered == 0 {
			t.Errorf("survivor gathered no rows: %+v", wi)
		}
	}
}

// TestPoolExhaustedDegrades: when every worker is gone and the retry
// budget runs out, the job ends in the coordinator-only degraded state
// — rows gathered before the death kept, never-run scenarios exported
// as error rows — and ?state=degraded finds it.
func TestPoolExhaustedDegrades(t *testing.T) {
	body := `{"parallelism":1,"scenarios":[` +
		`{"profile":"429.mcf","scale":0.1},{"profile":"429.mcf","scale":5,"name":"slow"}]}`

	srv, ts := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
	_, coord := newCoordinator(t, sched.Options{
		Workers:      []string{ts.URL},
		ShardRetries: 2,
	})

	st := submit(t, coord.URL, body, http.StatusAccepted)
	// Wait until the fast scenario's row is gathered, so the degraded
	// export proves gathered rows survive pool exhaustion.
	waitState(t, coord.URL, st.ID, func(s serve.JobStatus) bool { return s.Completed >= 1 })
	crashWorker(t, srv, ts)

	final := waitState(t, coord.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != sched.JobDegraded {
		t.Fatalf("job ended %s (%s), want degraded", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "worker pool exhausted") {
		t.Errorf("degraded error: %q", final.Error)
	}
	if final.Completed != 2 || final.Failed != 1 {
		t.Errorf("degraded counters: %+v", final)
	}

	csv := fetch(t, coord.URL+"/api/v1/jobs/"+st.ID+"/export.csv", http.StatusOK, "text/csv")
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 3 {
		t.Fatalf("degraded CSV rows: %d lines:\n%s", len(lines), csv)
	}
	if strings.Contains(lines[1], "exhausted") {
		t.Errorf("gathered row poisoned by the degradation: %s", lines[1])
	}
	if !strings.Contains(lines[2], "worker pool exhausted") {
		t.Errorf("never-run scenario lacks the degradation error: %s", lines[2])
	}

	// The listing filter speaks the extended state grammar.
	var list []serve.JobStatus
	if err := json.Unmarshal(fetch(t, coord.URL+"/api/v1/jobs?state=degraded", http.StatusOK, "application/json"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("?state=degraded listing: %+v", list)
	}
	fetch(t, coord.URL+"/api/v1/jobs?state=bogus", http.StatusBadRequest, "")
}

// TestBackpressure429: a worker whose queue is full bounces the shard
// with 429; the coordinator notes the rejection, keeps the worker
// healthy, and retries until the queue drains.
func TestBackpressure429(t *testing.T) {
	_, ts := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 1})
	// Fill the worker: one slow job running, one queued — the queue is
	// now full, so the shard submission must bounce.
	running := submit(t, ts.URL, `{"scenarios":[{"profile":"429.mcf","scale":3}]}`, http.StatusAccepted)
	waitState(t, ts.URL, running.ID, func(s serve.JobStatus) bool { return s.State == serve.JobRunning })
	submit(t, ts.URL, `{"scenarios":[{"profile":"429.mcf","scale":0.1}]}`, http.StatusAccepted)

	_, coord := newCoordinator(t, sched.Options{
		Workers:      []string{ts.URL},
		ShardRetries: 40,
	})
	st := submit(t, coord.URL, `{"scenarios":[{"profile":"470.lbm","scale":0.1}]}`, http.StatusAccepted)
	final := waitState(t, coord.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobDone {
		t.Fatalf("job ended %s (%s), want done after the queue drained", final.State, final.Error)
	}

	var infos []sched.WorkerInfo
	if err := json.Unmarshal(fetch(t, coord.URL+"/api/v1/workers", http.StatusOK, "application/json"), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("pool: %+v", infos)
	}
	if infos[0].Rejections == 0 {
		t.Error("no 429 rejection was recorded")
	}
	if !infos[0].Healthy {
		t.Error("backpressure marked the worker unhealthy")
	}
}

// TestWorkerRegistration: a coordinator started with an empty pool
// accepts jobs, and a worker registered at runtime via POST
// /api/v1/workers picks them up.
func TestWorkerRegistration(t *testing.T) {
	_, coord := newCoordinator(t, sched.Options{ShardRetries: 60})
	st := submit(t, coord.URL, `{"scenarios":[{"profile":"429.mcf","scale":0.1}]}`, http.StatusAccepted)

	_, ts := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
	resp, err := http.Post(coord.URL+"/api/v1/workers", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	var wi sched.WorkerInfo
	if err := json.NewDecoder(resp.Body).Decode(&wi); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || !wi.Healthy || wi.ID == "" {
		t.Fatalf("registration: status %d, info %+v", resp.StatusCode, wi)
	}

	final := waitState(t, coord.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobDone {
		t.Fatalf("job ended %s (%s), want done via the registered worker", final.State, final.Error)
	}

	// Re-registering the same URL is idempotent: 200, same pool entry.
	resp, err = http.Post(coord.URL+"/api/v1/workers", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("duplicate registration: status %d, want 200", resp.StatusCode)
	}
	fetch(t, coord.URL+"/api/v1/workers", http.StatusOK, "application/json")
}

// TestCancelFederated: cancelling a running federated job cancels its
// worker-side shards and seals a partial result — gathered rows kept,
// never-run scenarios exported as cancelled error rows.
func TestCancelFederated(t *testing.T) {
	body := `{"parallelism":1,"scenarios":[` +
		`{"profile":"429.mcf","scale":0.1},{"profile":"429.mcf","scale":5,"name":"slow"}]}`
	_, ts := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
	_, coord := newCoordinator(t, sched.Options{Workers: []string{ts.URL}})

	st := submit(t, coord.URL, body, http.StatusAccepted)
	waitState(t, coord.URL, st.ID, func(s serve.JobStatus) bool { return s.Completed >= 1 })
	req, err := http.NewRequest(http.MethodDelete, coord.URL+"/api/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	final := waitState(t, coord.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() || s.State == sched.JobDegraded })
	if final.State != serve.JobCancelled {
		t.Fatalf("job ended %s (%s), want cancelled", final.State, final.Error)
	}
	csv := fetch(t, coord.URL+"/api/v1/jobs/"+st.ID+"/export.csv", http.StatusOK, "text/csv")
	if lines := strings.Split(strings.TrimSpace(string(csv)), "\n"); len(lines) != 3 {
		t.Errorf("cancelled CSV rows: %d lines:\n%s", len(lines), csv)
	}

	// The worker-side shard job was told to stop too.
	var workerJobs []serve.JobStatus
	if err := json.Unmarshal(fetch(t, ts.URL+"/api/v1/jobs", http.StatusOK, "application/json"), &workerJobs); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		live := 0
		for _, j := range workerJobs {
			if !j.State.Terminal() {
				live++
			}
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still running shard jobs after federated cancel: %+v", workerJobs)
		}
		time.Sleep(10 * time.Millisecond)
		json.Unmarshal(fetch(t, ts.URL+"/api/v1/jobs", http.StatusOK, "application/json"), &workerJobs)
	}
}

// TestSubmitValidation: bad submissions die at the coordinator's edge
// with 400 — no worker sees them. The validator is the one the worker
// daemon calls (its table is TestSubmitValidation in internal/jobs, and
// serve's test of this name drives it over HTTP); what is pinned here is
// that the coordinator's edge calls it, with the coordinator's limit.
func TestSubmitValidation(t *testing.T) {
	_, wts := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
	_, coord := newCoordinator(t, sched.Options{Workers: []string{wts.URL}, MaxScenarios: 2})
	for _, c := range []struct {
		name, body string
	}{
		{"unparseable", `{"scenariosz":[]}`},
		{"negative timeout", `{"scenario_timeout_ms":-5,"scenarios":[{"profile":"429.mcf"}]}`},
		{"over scenario limit", `{"suite":{}}`},
	} {
		submit(t, coord.URL, c.body, http.StatusBadRequest)
	}
	var seen []serve.JobStatus
	if err := json.Unmarshal(fetch(t, wts.URL+"/api/v1/jobs", http.StatusOK, ""), &seen); err != nil || len(seen) != 0 {
		t.Errorf("the worker saw %d jobs (%v), want none", len(seen), err)
	}
}

// TestRejectedSubmitLeavesNoGhost: a submission the coordinator answers
// 429 (or 503) never becomes a job. With one runner, a one-deep queue
// and an empty pool, four submissions are accepted, accepted, rejected,
// rejected — and the registry, the metrics and the id sequence all say
// two jobs, with nothing to stream for the ids the rejected ones would
// have had.
func TestRejectedSubmitLeavesNoGhost(t *testing.T) {
	_, coord := newCoordinator(t, sched.Options{Jobs: 1, QueueCapacity: 1, ShardRetries: 100000})
	body := `{"scenarios":[{"profile":"429.mcf","scale":0.1}]}`
	first := submit(t, coord.URL, body, http.StatusAccepted)
	waitState(t, coord.URL, first.ID, func(s serve.JobStatus) bool { return s.State == serve.JobRunning })
	second := submit(t, coord.URL, body, http.StatusAccepted)
	submit(t, coord.URL, body, http.StatusTooManyRequests)
	submit(t, coord.URL, body, http.StatusTooManyRequests)

	var list []serve.JobStatus
	if err := json.Unmarshal(fetch(t, coord.URL+"/api/v1/jobs", http.StatusOK, ""), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "job-1" || list[1].ID != "job-2" || list[1].State != serve.JobQueued {
		t.Errorf("listing after two rejections: %+v", list)
	}
	metrics := string(fetch(t, coord.URL+"/metrics", http.StatusOK, ""))
	for _, line := range []string{`darco_sched_jobs{state="queued"} 1`, `darco_sched_jobs{state="running"} 1`, "darco_sched_jobs_total 2"} {
		if !strings.Contains(metrics, line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}
	// There is no job under the ids the rejected submissions would have
	// had — and so no stream, which for a ghost would never end.
	fetch(t, coord.URL+"/api/v1/jobs/job-3", http.StatusNotFound, "")
	fetch(t, coord.URL+"/api/v1/jobs/job-4", http.StatusNotFound, "")
	fetch(t, coord.URL+"/api/v1/jobs/job-3/events", http.StatusNotFound, "")

	// Ids stay sequential in accepted-submission order: once the runner
	// has popped the queued job, the next accepted one is job-3.
	cancelJob(t, coord.URL, first.ID)
	waitState(t, coord.URL, second.ID, func(s serve.JobStatus) bool { return s.State == serve.JobRunning })
	if third := submit(t, coord.URL, body, http.StatusAccepted); third.ID != "job-3" {
		t.Errorf("next accepted job is %s, want job-3", third.ID)
	}
	for _, id := range []string{"job-2", "job-3"} {
		cancelJob(t, coord.URL, id)
	}
}

// TestShutdownWithoutStoreCancelsQueued: with no journal to carry a
// queued job to the next start, a graceful stop ends it cancelled — it
// would otherwise read queued for ever, with its stream closed.
func TestShutdownWithoutStoreCancelsQueued(t *testing.T) {
	c, coord := newCoordinator(t, sched.Options{Jobs: 1, ShardRetries: 100000})
	body := `{"scenarios":[{"profile":"429.mcf","scale":0.1}]}`
	running := submit(t, coord.URL, body, http.StatusAccepted)
	waitState(t, coord.URL, running.ID, func(s serve.JobStatus) bool { return s.State == serve.JobRunning })
	queued := submit(t, coord.URL, body, http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st := getStatus(t, coord.URL, id); st.State != serve.JobCancelled {
			t.Errorf("%s is %s after a store-less shutdown, want cancelled", id, st.State)
		}
	}
	if csv := fetch(t, coord.URL+"/api/v1/jobs/"+queued.ID+"/export.csv", http.StatusOK, ""); !strings.Contains(string(csv), "cancelled while queued") {
		t.Errorf("queued job's rows do not say why it never ran:\n%s", csv)
	}
	submit(t, coord.URL, body, http.StatusServiceUnavailable)
}

// TestLegacyWorkerTelemetry: a worker of the release whose telemetry
// windows still carried an always-zero "vector" counter — met during a
// rolling upgrade — is gathered like a current one. The federated job's
// telemetry windows equal those of a standalone run of the same
// submission.
func TestLegacyWorkerTelemetry(t *testing.T) {
	body := `{"scenarios":[{"profile":"429.mcf","scale":0.1}],"telemetry":{"interval_insns":262144}}`
	s := serve.New(serve.Options{Workers: 1, QueueCapacity: 4})
	var injected atomic.Int32 // frames rewritten, on the worker's handler goroutines
	branch := regexp.MustCompile(`("branch":\d+)`)
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/events") {
			s.ServeHTTP(w, r)
			return
		}
		// The stream ends with the shard job: buffer it, then add the
		// counter to every telemetry frame.
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		for _, line := range bytes.SplitAfter(rec.Body.Bytes(), []byte("\n")) {
			if bytes.HasPrefix(line, []byte(`{"event":"telemetry"`)) {
				line = branch.ReplaceAll(line, []byte(`$1,"vector":0`))
				injected.Add(1)
			}
			w.Write(line)
		}
	}))
	t.Cleanup(func() {
		legacy.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("worker shutdown: %v", err)
		}
	})
	_, coord := newCoordinator(t, sched.Options{Workers: []string{legacy.URL}})
	st := submit(t, coord.URL, body, http.StatusAccepted)
	if final := waitState(t, coord.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() }); final.State != serve.JobDone {
		t.Fatalf("federated job ended %s (%s)", final.State, final.Error)
	}
	if injected.Load() == 0 {
		t.Fatal("the legacy worker sent no telemetry frame")
	}

	_, ref := newWorker(t, serve.Options{Workers: 1, QueueCapacity: 4})
	rst := submit(t, ref.URL, body, http.StatusAccepted)
	waitState(t, ref.URL, rst.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	got, want := telemetryWindows(t, coord.URL, st.ID), telemetryWindows(t, ref.URL, rst.ID)
	if len(want) < 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("federated windows %+v, standalone %+v", got, want)
	}
}

// telemetryWindows reads a finished job's NDJSON event stream and
// returns its telemetry events without the job id.
func telemetryWindows(t *testing.T, base, id string) []serve.TelemetryEvent {
	t.Helper()
	var out []serve.TelemetryEvent
	sc := bufio.NewScanner(bytes.NewReader(fetch(t, base+"/api/v1/jobs/"+id+"/events?format=ndjson", http.StatusOK, "")))
	for sc.Scan() {
		var f struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		if f.Event == serve.EventTelemetry {
			var ev serve.TelemetryEvent
			if err := json.Unmarshal(f.Data, &ev); err != nil {
				t.Fatal(err)
			}
			ev.Job = ""
			out = append(out, ev)
		}
	}
	return out
}
