package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	darco "darco"
	"darco/export"
	"darco/internal/testutil"
	"darco/internal/workload"
	"darco/serve"
	"darco/telemetry"
)

// newTestServer spins up a daemon behind httptest and shuts it down
// with the test.
func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// submit POSTs a job and decodes the response; fatal unless the status
// code matches want.
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
		if st.ID == "" || st.State != serve.JobQueued {
			t.Fatalf("submit response: %+v", st)
		}
	}
	return st
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

// waitState polls a job until pred holds, failing after a generous
// deadline.
func waitState(t *testing.T, base, id string, pred func(serve.JobStatus) bool) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
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

// frame is one decoded stream frame, from either framing.
type frame struct {
	kind string
	data json.RawMessage
}

// readStream consumes a job's event stream (SSE or NDJSON framing)
// until it ends, returning every frame.
func readStream(t *testing.T, url string, ndjson bool) []frame {
	t.Helper()
	if ndjson {
		url += "?format=ndjson"
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wantType := "text/event-stream"
	if ndjson {
		wantType = "application/x-ndjson"
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantType) {
		t.Errorf("events content-type %q, want %q", ct, wantType)
	}
	var frames []frame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if ndjson {
		for sc.Scan() {
			var env struct {
				Event string          `json:"event"`
				Data  json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
				t.Fatalf("bad ndjson frame %q: %v", sc.Text(), err)
			}
			frames = append(frames, frame{kind: env.Event, data: env.Data})
		}
	} else {
		var kind string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				frames = append(frames, frame{kind: kind, data: json.RawMessage(strings.TrimPrefix(line, "data: "))})
			case line == "":
			default:
				t.Fatalf("unexpected SSE line %q", line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// offlineExport runs the same scenarios through the library directly
// and renders them with the deterministic export defaults — the bytes
// the daemon's export endpoints must reproduce exactly.
func offlineExport(t *testing.T, scenarios []darco.Scenario) (jsonB, csvB, ndjsonB []byte) {
	t.Helper()
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RunCampaign(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	var j, c, n bytes.Buffer
	if err := export.WriteJSON(&j, rep); err != nil {
		t.Fatal(err)
	}
	if err := export.WriteCSV(&c, rep); err != nil {
		t.Fatal(err)
	}
	if err := export.WriteNDJSON(&n, rep); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes(), n.Bytes()
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	return p
}

// TestEndToEndSubmitPollExport is the core lifecycle test: submit →
// poll status → fetch results in every format, byte-identical to an
// offline export of the same scenarios.
func TestEndToEndSubmitPollExport(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	body := `{"name":"e2e","scenarios":[
		{"profile":"429.mcf","scale":0.05},
		{"profile":"470.lbm","scale":0.05}]}`
	st := submit(t, ts.URL, body, http.StatusAccepted)
	if st.Scenarios != 2 || st.Name != "e2e" {
		t.Fatalf("submitted status: %+v", st)
	}

	// Results are 409 until the job lands.
	if st := getStatus(t, ts.URL, st.ID); !st.State.Terminal() {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/export.json")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict && !getStatus(t, ts.URL, st.ID).State.Terminal() {
			t.Errorf("export before completion: status %d, want 409", resp.StatusCode)
		}
	}

	final := waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if final.State != serve.JobDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if final.Completed != 2 || final.Failed != 0 {
		t.Errorf("final counters: %+v", final)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Errorf("missing timestamps: %+v", final)
	}

	scenarios := []darco.Scenario{
		{Profile: mustProfile(t, "429.mcf"), Scale: 0.05},
		{Profile: mustProfile(t, "470.lbm"), Scale: 0.05},
	}
	wantJSON, wantCSV, wantNDJSON := offlineExport(t, scenarios)
	base := ts.URL + "/api/v1/jobs/" + st.ID
	testutil.RequireSameBytes(t, "export.json vs offline export", fetch(t, base+"/export.json", 200, "application/json"), wantJSON)
	testutil.RequireSameBytes(t, "export.csv vs offline export", fetch(t, base+"/export.csv", 200, "text/csv"), wantCSV)
	testutil.RequireSameBytes(t, "export.ndjson vs offline export", fetch(t, base+"/export.ndjson", 200, "application/x-ndjson"), wantNDJSON)
	html := fetch(t, base+"/export.html", 200, "text/html")
	if !bytes.Contains(html, []byte("<svg")) || !bytes.Contains(html, []byte("429.mcf")) {
		t.Error("export.html is not the dashboard")
	}
	if wall := fetch(t, base+"/export.json?wall=1", 200, "application/json"); !bytes.Contains(wall, []byte("wall_ms")) {
		t.Error("?wall=1 did not add wall-clock metrics")
	}

	// The job shows up in the listing and the roster/health endpoints
	// respond.
	var list []serve.JobStatus
	if err := json.Unmarshal(fetch(t, ts.URL+"/api/v1/jobs", 200, "application/json"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("job listing: %+v", list)
	}
	var profiles []serve.ProfileInfo
	if err := json.Unmarshal(fetch(t, ts.URL+"/api/v1/profiles", 200, "application/json"), &profiles); err != nil {
		t.Fatal(err)
	}
	if len(profiles) != len(workload.Suites()) {
		t.Errorf("%d profiles listed, want %d", len(profiles), len(workload.Suites()))
	}
	var h serve.Health
	if err := json.Unmarshal(fetch(t, ts.URL+"/healthz", 200, "application/json"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Jobs != 1 {
		t.Errorf("health: %+v", h)
	}
}

// TestConcurrentClientsStreamAndFetch is the acceptance scenario: two
// clients drive the daemon at once, each streaming live telemetry
// while its job runs (one over SSE, one over NDJSON), then fetching
// results byte-identical to offline exports. Run under -race.
//
// The exact frame-count assertions are safe against the stream's
// lossy-drop policy: each job emits ~60 windows + 2 scenario rows +
// a few state frames at this scale/interval, well under the 256-frame
// subscriber buffer, so nothing can be dropped even if a client lags.
func TestConcurrentClientsStreamAndFetch(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	type client struct {
		name      string
		ndjson    bool
		profiles  []string
		scenarios []darco.Scenario
	}
	clients := []client{
		{name: "sse-client", ndjson: false, profiles: []string{"429.mcf", "458.sjeng"}},
		{name: "ndjson-client", ndjson: true, profiles: []string{"470.lbm", "433.milc"}},
	}
	for i := range clients {
		for _, p := range clients[i].profiles {
			clients[i].scenarios = append(clients[i].scenarios,
				darco.Scenario{Profile: mustProfile(t, p), Scale: 0.5})
		}
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c client) {
			defer wg.Done()
			var specs []string
			for _, p := range c.profiles {
				specs = append(specs, fmt.Sprintf(`{"profile":%q,"scale":0.5}`, p))
			}
			body := fmt.Sprintf(`{"name":%q,"scenarios":[%s],"telemetry":{"interval_insns":50000}}`,
				c.name, strings.Join(specs, ","))
			st := submit(t, ts.URL, body, http.StatusAccepted)

			// Stream live events until the job ends.
			frames := readStream(t, ts.URL+"/api/v1/jobs/"+st.ID+"/events", c.ndjson)
			var telemetryFrames, scenarioFrames int
			var finalState serve.JobStatus
			for _, f := range frames {
				switch f.kind {
				case serve.EventTelemetry:
					var ev serve.TelemetryEvent
					if err := json.Unmarshal(f.data, &ev); err != nil {
						t.Errorf("%s: bad telemetry frame: %v", c.name, err)
					}
					if ev.Job != st.ID {
						t.Errorf("%s: telemetry for wrong job %s", c.name, ev.Job)
					}
					telemetryFrames++
				case serve.EventScenario:
					var ev serve.ScenarioEvent
					if err := json.Unmarshal(f.data, &ev); err != nil {
						t.Errorf("%s: bad scenario frame: %v", c.name, err)
					}
					scenarioFrames++
				case serve.EventState:
					if err := json.Unmarshal(f.data, &finalState); err != nil {
						t.Errorf("%s: bad state frame: %v", c.name, err)
					}
				}
			}
			if finalState.State != serve.JobDone {
				t.Errorf("%s: stream ended in state %s (%s)", c.name, finalState.State, finalState.Error)
				return
			}
			if telemetryFrames == 0 {
				t.Errorf("%s: no telemetry frames on the live stream", c.name)
			}
			if scenarioFrames != len(c.scenarios) {
				t.Errorf("%s: %d scenario frames, want %d", c.name, scenarioFrames, len(c.scenarios))
			}

			wantJSON, wantCSV, _ := offlineExport(t, c.scenarios)
			base := ts.URL + "/api/v1/jobs/" + st.ID
			testutil.RequireSameBytes(t, c.name+": export.json vs offline export", fetch(t, base+"/export.json", 200, ""), wantJSON)
			testutil.RequireSameBytes(t, c.name+": export.csv vs offline export", fetch(t, base+"/export.csv", 200, ""), wantCSV)
		}(c)
	}
	wg.Wait()
}

// TestSSETelemetryWindows checks the telemetry stream's content: the
// windows of a single-scenario job must be contiguous, cut at the
// requested interval, and internally consistent.
func TestSSETelemetryWindows(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{MaxParallelism: 1})
	const interval = 50_000
	// The stream is live (no replay for frames published before the
	// subscription), so the job must outlive the subscribe round trip
	// comfortably: two scale-1.0 scenarios run for hundreds of ms.
	body := fmt.Sprintf(`{"scenarios":[
		{"profile":"429.mcf","scale":1},{"profile":"429.mcf","scale":1}],
		"telemetry":{"interval_insns":%d}}`, interval)
	st := submit(t, ts.URL, body, http.StatusAccepted)
	frames := readStream(t, ts.URL+"/api/v1/jobs/"+st.ID+"/events", false)

	wins := make(map[int][]telemetry.Window)
	for _, f := range frames {
		if f.kind != serve.EventTelemetry {
			continue
		}
		var ev serve.TelemetryEvent
		if err := json.Unmarshal(f.data, &ev); err != nil {
			t.Fatal(err)
		}
		if (ev.Index != 0 && ev.Index != 1) || ev.Scenario != "429.mcf" {
			t.Errorf("telemetry tagged %d/%q, want 0|1/429.mcf", ev.Index, ev.Scenario)
		}
		wins[ev.Index] = append(wins[ev.Index], ev.Window)
	}
	var total int
	for _, ws := range wins {
		total += len(ws)
	}
	if total < 2 {
		t.Fatalf("only %d telemetry windows for a %d-insn interval", total, interval)
	}
	for idx, ws := range wins {
		for i, w := range ws {
			// Frames published before the subscription are legitimately
			// unseen. After that the stream is provably lossless even on
			// a stalled consumer: two scale-1.0 scenarios at this
			// interval emit ~120 frames total, under the 256-frame
			// subscriber buffer, so the lossy-drop path cannot trigger.
			if i > 0 && w.Index != ws[i-1].Index+1 {
				t.Fatalf("scenario %d: window index jumped %d -> %d on a drained stream",
					idx, ws[i-1].Index, w.Index)
			}
			if i < len(ws)-1 && w.Insns != interval {
				t.Errorf("scenario %d window %d covers %d insns, want %d", idx, i, w.Insns, interval)
			}
			if sum := w.Simple + w.Complex + w.Memory + w.Branch; sum != w.Insns {
				t.Errorf("scenario %d window %d class sum %d != insns %d", idx, i, sum, w.Insns)
			}
		}
	}
}

// TestQueueBackpressure pins the 429 contract: Workers:1 and
// QueueCapacity:1 admit one running and one queued job; the third
// submission is rejected.
func TestQueueBackpressure(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, QueueCapacity: 1, MaxParallelism: 1})
	long := `{"scenarios":[
		{"profile":"429.mcf","scale":1},{"profile":"429.mcf","scale":1},
		{"profile":"429.mcf","scale":1},{"profile":"429.mcf","scale":1}]}`

	first := submit(t, ts.URL, long, http.StatusAccepted)
	// Wait until the worker has popped it: the queue slot is free.
	waitState(t, ts.URL, first.ID, func(s serve.JobStatus) bool { return s.State == serve.JobRunning })
	second := submit(t, ts.URL, long, http.StatusAccepted)
	if st := getStatus(t, ts.URL, second.ID); st.State != serve.JobQueued {
		t.Fatalf("second job is %s, want queued", st.State)
	}

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission: status %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(string(raw), "queue is full") {
		t.Errorf("429 body: %s", raw)
	}

	// Unblock the teardown promptly.
	for _, id := range []string{first.ID, second.ID} {
		fetchCancel(t, ts.URL, id)
	}
	for _, id := range []string{first.ID, second.ID} {
		waitState(t, ts.URL, id, func(s serve.JobStatus) bool { return s.State.Terminal() })
	}
}

func fetchCancel(t *testing.T, base, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCancelRunningJob is the acceptance cancel path: a cancel request
// stops an in-flight campaign promptly and the partial report stays
// fetchable.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{MaxParallelism: 1})
	long := `{"scenarios":[
		{"profile":"429.mcf","scale":1},{"profile":"429.mcf","scale":1},
		{"profile":"429.mcf","scale":1},{"profile":"429.mcf","scale":1},
		{"profile":"429.mcf","scale":1},{"profile":"429.mcf","scale":1}]}`
	st := submit(t, ts.URL, long, http.StatusAccepted)
	waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State == serve.JobRunning })

	start := time.Now()
	fetchCancel(t, ts.URL, st.ID)
	final := waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if final.State != serve.JobCancelled {
		t.Fatalf("cancelled job ended %s (%s)", final.State, final.Error)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("cancellation took %s", el)
	}
	if !strings.Contains(final.Error, "context canceled") {
		t.Errorf("cancelled job error %q does not surface context.Canceled", final.Error)
	}
	// The partial report is retained: rows for never-started scenarios
	// carry their cancellation error.
	got := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/export.csv", 200, "text/csv")
	if !bytes.Contains(got, []byte("context canceled")) {
		t.Errorf("partial export misses cancelled rows:\n%s", got)
	}
	// Cancel is idempotent on a terminal job.
	if again := fetchCancel(t, ts.URL, st.ID); again.State != serve.JobCancelled {
		t.Errorf("re-cancel changed state to %s", again.State)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{MaxScenarios: 3})
	cases := []struct {
		name, body, wantErr string
	}{
		{"bad json", `{`, "invalid request body"},
		{"trailing garbage", `{"scenarios":[{"profile":"429.mcf"}]}x`, "trailing data"},
		{"unknown field", `{"scenario":[{"profile":"429.mcf"}]}`, "unknown field"},
		{"no scenarios", `{}`, "no scenarios"},
		{"unknown profile", `{"scenarios":[{"profile":"999.nope"}]}`, `unknown profile`},
		{"negative scale", `{"scenarios":[{"profile":"429.mcf","scale":-1}]}`, "negative"},
		{"negative parallelism", `{"parallelism":-2,"scenarios":[{"profile":"429.mcf"}]}`, "negative"},
		{"too many scenarios", `{"suite":{"scale":0.05}}`, "exceed the server limit"},
		{"bad engine", `{"scenarios":[{"profile":"429.mcf"}],"engine":{"power":true,"freq_mhz":-5}}`,
			"engine configuration"},
		{"window per instruction", `{"scenarios":[{"profile":"429.mcf"}],"telemetry":{"interval_insns":1}}`,
			"below the minimum"},
		{"window just under the floor", `{"scenarios":[{"profile":"429.mcf"}],"telemetry":{"interval_insns":1023}}`,
			"below the minimum"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
			}
			if !strings.Contains(string(raw), c.wantErr) {
				t.Errorf("error %s does not mention %q", raw, c.wantErr)
			}
		})
	}
	// The telemetry floor itself is a valid interval.
	submit(t, ts.URL, fmt.Sprintf(`{"scenarios":[{"profile":"429.mcf","scale":0.01}],"telemetry":{"interval_insns":%d}}`,
		serve.MinTelemetryInterval), http.StatusAccepted)
	// Oversized bodies are shed before parsing: 413, not an OOM.
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"name":"`+strings.Repeat("x", 2<<20)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit: status %d, want 413", resp.StatusCode)
	}
	if code := func() int {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/job-999")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}(); code != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", code)
	}
}

// TestEngineSpecApplied checks that engine options survive the JSON
// round trip: a timing-enabled job exports non-zero cycles.
func TestEngineSpecApplied(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	body := `{"scenarios":[{"profile":"429.mcf","scale":0.05}],
		"engine":{"timing":true,"bb_threshold":5}}`
	st := submit(t, ts.URL, body, http.StatusAccepted)
	final := waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if final.State != serve.JobDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	var rows []export.Row
	for _, line := range bytes.Split(fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/export.ndjson", 200, ""), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var row export.Row
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 1 || rows[0].Cycles == 0 {
		t.Errorf("timing-enabled job exported no cycles: %+v", rows)
	}
}

// TestEventsAfterCompletion: a late subscriber to a terminal job gets
// the snapshot, the replayed event history (the scenario row it
// missed), and the final state — then the stream ends instead of
// hanging.
func TestEventsAfterCompletion(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	st := submit(t, ts.URL, `{"scenarios":[{"profile":"429.mcf","scale":0.05}]}`, http.StatusAccepted)
	waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })

	done := make(chan []frame, 1)
	go func() { done <- readStream(t, ts.URL+"/api/v1/jobs/"+st.ID+"/events", true) }()
	select {
	case frames := <-done:
		if len(frames) == 0 {
			t.Fatal("no frames for a completed job")
		}
		var scenarioFrames int
		for _, f := range frames {
			if f.kind == serve.EventScenario {
				var ev serve.ScenarioEvent
				if err := json.Unmarshal(f.data, &ev); err != nil {
					t.Fatalf("bad replayed scenario frame: %v", err)
				}
				if ev.Index != 0 || ev.Row.Scenario != "429.mcf" {
					t.Errorf("replayed scenario frame: %+v", ev)
				}
				scenarioFrames++
			}
		}
		if scenarioFrames != 1 {
			t.Errorf("replay delivered %d scenario frames, want 1", scenarioFrames)
		}
		var last serve.JobStatus
		if err := json.Unmarshal(frames[len(frames)-1].data, &last); err != nil {
			t.Fatal(err)
		}
		if last.State != serve.JobDone {
			t.Errorf("final frame state %s", last.State)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream for a completed job did not end")
	}
}

// TestShutdownCancelsJobs pins the shutdown contract: in-flight jobs
// are cancelled, queued jobs never start, and new submissions get 503.
func TestShutdownCancelsJobs(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1, QueueCapacity: 2, MaxParallelism: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	long := `{"scenarios":[
		{"profile":"429.mcf","scale":1},{"profile":"429.mcf","scale":1},
		{"profile":"429.mcf","scale":1},{"profile":"429.mcf","scale":1}]}`
	running := submit(t, ts.URL, long, http.StatusAccepted)
	waitState(t, ts.URL, running.ID, func(st serve.JobStatus) bool { return st.State == serve.JobRunning })
	queued := submit(t, ts.URL, long, http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := getStatus(t, ts.URL, running.ID); st.State != serve.JobCancelled {
		t.Errorf("running job ended %s after shutdown", st.State)
	}
	if st := getStatus(t, ts.URL, queued.ID); st.State != serve.JobCancelled {
		t.Errorf("queued job ended %s after shutdown", st.State)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"scenarios":[{"profile":"429.mcf","scale":0.05}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: status %d, want 503", resp.StatusCode)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown not idempotent: %v", err)
	}
}
