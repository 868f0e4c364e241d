package serve_test

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"darco/internal/testutil"
	"darco/obs"
	"darco/serve"
)

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestTraceEndpoint drives one campaign to completion and checks the
// trace it leaves behind: a single tree rooted at the job span, with
// queue-wait and run children, a scenario span per scenario, and phase
// spans partitioning each scenario.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	body := `{"name":"traced","scenarios":[
		{"profile":"429.mcf","scale":0.05},
		{"profile":"470.lbm","scale":0.05}]}`
	st := submit(t, ts.URL, body, http.StatusAccepted)
	final := waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if final.State != serve.JobDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}

	var doc obs.TraceDoc
	raw := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/trace", http.StatusOK, "application/json")
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if !hexTraceID.MatchString(doc.TraceID) {
		t.Fatalf("trace id %q is not 32 hex digits", doc.TraceID)
	}
	names := map[string]int{}
	for _, sp := range doc.Spans {
		if sp.TraceID != doc.TraceID {
			t.Errorf("span %s carries trace %s, want %s", sp.Name, sp.TraceID, doc.TraceID)
		}
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
		key := sp.Name
		if strings.HasPrefix(key, "scenario ") {
			key = "scenario"
		}
		names[key]++
	}
	for name, want := range map[string]int{
		"job " + st.ID: 1, "queue-wait": 1, "run": 1, "scenario": 2, "emulate": 2, "catch-up": 2,
	} {
		if names[name] != want {
			t.Errorf("trace has %d %q spans, want %d (all: %v)", names[name], name, want, names)
		}
	}

	// One tree, rooted at the job span, with the run span under it and
	// both scenarios under the run.
	if len(doc.Tree) != 1 {
		t.Fatalf("trace has %d roots, want 1", len(doc.Tree))
	}
	root := doc.Tree[0]
	if root.Name != "job "+st.ID {
		t.Fatalf("root span is %q, want the job span", root.Name)
	}
	var run *obs.SpanNode
	for _, c := range root.Children {
		if c.Name == "run" {
			run = c
		}
	}
	if run == nil {
		t.Fatal("job span has no run child")
	}
	scen := 0
	for _, c := range run.Children {
		if strings.HasPrefix(c.Name, "scenario ") {
			scen++
			if len(c.Children) == 0 {
				t.Errorf("scenario span %q has no phase children", c.Name)
			}
			// The authoritative component's share of emulation is a
			// span inside the emulate phase.
			for _, ph := range c.Children {
				if ph.Name != "emulate" {
					continue
				}
				if len(ph.Children) != 1 || ph.Children[0].Name != "catch-up" ||
					ph.Children[0].Start != ph.Start || ph.Children[0].End > ph.End {
					t.Errorf("emulate span of %q: children %+v, want one catch-up span inside it", c.Name, ph.Children)
				}
			}
		}
	}
	if scen != 2 {
		t.Errorf("run span has %d scenario children, want 2", scen)
	}

	// The Chrome trace-event rendering carries the same spans as
	// complete ("X") events.
	chrome := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/trace?format=chrome", http.StatusOK, "application/json")
	var cd struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &cd); err != nil {
		t.Fatalf("chrome trace decode: %v", err)
	}
	if len(cd.TraceEvents) != len(doc.Spans) {
		t.Errorf("chrome trace has %d events, want %d", len(cd.TraceEvents), len(doc.Spans))
	}
	for _, ev := range cd.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
	}
}

// TestTraceHeaderAdoption submits with an X-Darco-Trace header and
// checks the job joins that trace, with its root span parented under
// the caller's span — the stitching contract the sched coordinator
// relies on.
func TestTraceHeaderAdoption(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	traceID, parent := obs.NewTraceID(), obs.NewSpanID()
	req, err := http.NewRequest("POST", ts.URL+"/api/v1/jobs",
		strings.NewReader(`{"scenarios":[{"profile":"429.mcf","scale":0.05}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectTrace(req.Header, traceID, parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })

	var doc obs.TraceDoc
	raw := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/trace", http.StatusOK, "application/json")
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != traceID {
		t.Fatalf("job trace id %s, want adopted %s", doc.TraceID, traceID)
	}
	found := false
	for _, sp := range doc.Spans {
		if sp.Name == "job "+st.ID {
			found = true
			if sp.Parent != parent {
				t.Errorf("job span parent %s, want caller's span %s", sp.Parent, parent)
			}
		}
	}
	if !found {
		t.Error("no job root span in trace")
	}
}

// TestMetricsExpositionValid runs the daemon's /metrics output — after
// real traffic from an obs-enabled job, so histograms carry
// observations and the engine counters have counted — through the
// exposition parser.
func TestMetricsExpositionValid(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	st := submit(t, ts.URL, `{"scenarios":[{"profile":"429.mcf","scale":0.05}],"engine":{"obs":true}}`, http.StatusAccepted)
	waitState(t, ts.URL, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })

	raw := fetch(t, ts.URL+"/metrics", http.StatusOK, "")
	if err := testutil.ValidatePrometheus(raw); err != nil {
		t.Fatalf("/metrics exposition invalid: %v\n%s", err, raw)
	}
	for _, want := range []string{
		"darco_jobs{state=\"done\"} 1",
		"darco_build_info{version=",
		"darco_goroutines ",
		"darco_scenario_wall_seconds_bucket{le=\"+Inf\"} 1",
		"darco_job_queue_wait_seconds_count 1",
		"darco_engine_block_cache_hits_total",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, name := range []string{
		"darco_engine_decode_cache_hits_total", "darco_engine_decode_cache_misses_total",
		"darco_engine_block_cache_hits_total", "darco_engine_block_cache_misses_total",
	} {
		if v := metricValue(t, raw, name); v <= 0 {
			t.Errorf("%s = %g after an obs-enabled job, want > 0", name, v)
		}
	}
	metricValue(t, raw, "darco_engine_code_cache_flushes_total") // exposed, whatever its value
	// The engine has one timing path; no series describes a second.
	if strings.Contains(string(raw), "pipeline") {
		t.Errorf("/metrics exports a pipeline series:\n%s", raw)
	}
}
