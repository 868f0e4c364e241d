package testutil

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"darco/export"
	"darco/obs"
	"darco/store"
	"darco/telemetry"
)

// EventFollower follows one job's NDJSON event stream on its own
// goroutine, for tests that pin a daemon's frame order. Opened closes
// once the opening snapshot frame has arrived (the subscription is
// registered, so every later frame is seen live), Telemetry once the
// first telemetry frame has, and Lines delivers the whole stream as
// "<event> <state or scenario index>" lines when the daemon ends it.
type EventFollower struct {
	Opened    chan struct{}
	Telemetry chan struct{}
	Lines     chan []string
}

// FollowEvents starts following jobURL + "/events".
func FollowEvents(t testing.TB, jobURL string) *EventFollower {
	t.Helper()
	ef := &EventFollower{Opened: make(chan struct{}), Telemetry: make(chan struct{}), Lines: make(chan []string, 1)}
	go func() {
		var lines []string
		defer func() { ef.Lines <- lines }()
		resp, err := http.Get(jobURL + "/events?format=ndjson")
		if err != nil {
			t.Errorf("events: %v", err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		sawTelemetry := false
		for sc.Scan() {
			var f struct {
				Event string `json:"event"`
				Data  struct {
					State string `json:"state"`
					Index int    `json:"scenario_index"`
				} `json:"data"`
			}
			if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
				t.Errorf("bad frame %q: %v", sc.Text(), err)
				return
			}
			if f.Event == "state" {
				lines = append(lines, "state "+f.Data.State)
			} else {
				lines = append(lines, fmt.Sprintf("%s %d", f.Event, f.Data.Index))
			}
			if len(lines) == 1 {
				close(ef.Opened)
			}
			if f.Event == "telemetry" && !sawTelemetry {
				sawTelemetry = true
				close(ef.Telemetry)
			}
		}
	}()
	return ef
}

// JournalLines renders a job's journal as "<kind> [<scenario index> |
// <span name>]" lines in append order, read back from the store.
func JournalLines(t testing.TB, st *store.Store, id string) []string {
	t.Helper()
	for _, h := range st.Jobs() {
		if h.ID != id {
			continue
		}
		var lines []string
		for _, rec := range h.Records {
			line := string(rec.Kind)
			switch {
			case rec.Row != nil:
				line += fmt.Sprintf(" %d", rec.Row.Index)
			case rec.Telemetry != nil:
				line += fmt.Sprintf(" %d", rec.Telemetry.Index)
			case rec.Span != nil:
				line += " " + rec.Span.Span.Name
			}
			lines = append(lines, line)
		}
		return lines
	}
	t.Fatalf("no journaled history for %s", id)
	return nil
}

// dropTelemetry removes the telemetry lines from a pinned sequence.
func dropTelemetry(lines []string) []string {
	var out []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "telemetry ") {
			out = append(out, l)
		}
	}
	return out
}

// PinnedCases are the three lives of one fixed submission that each
// daemon package's TestPinnedLifecycle records under testdata: a run to
// done, a cancel while queued and a cancel while running.
var PinnedCases = []string{"lifecycle_done", "lifecycle_cancel_queued", "lifecycle_cancel_running"}

// RunPinnedCase drives one of PinnedCases against the daemon at base —
// which must run one job at a time and journal into st — and returns
// what the golden holds: every journal record and every stream frame of
// the pinned job's life, in order.
//
// The pinned submission is two explicit scenarios, serial, telemetry on.
// A blocker job occupies the daemon's only worker first, so the pinned
// job can be subscribed to while it is still queued: every frame then
// reaches the stream live, in publish order, with nothing decided by who
// won the race to the first state frame.
func RunPinnedCase(t testing.TB, base string, st *store.Store, name string) []byte {
	t.Helper()
	post := func(path, body string, want int) (id string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != want {
			t.Fatalf("POST %s: status %d (want %d), decode %v", path, resp.StatusCode, want, err)
		}
		return st.ID
	}
	cancel := func(id string) { post("/api/v1/jobs/"+id+"/cancel", "", http.StatusOK) }
	await := func(what string, c <-chan struct{}) {
		t.Helper()
		select {
		case <-c:
		case <-time.After(60 * time.Second):
			t.Fatalf("the pinned job never %s", what)
		}
	}

	blocker := post("/api/v1/jobs", `{"name":"blocker","scenarios":[{"profile":"429.mcf","scale":5}],"telemetry":{"disable":true}}`, http.StatusAccepted)
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + "/api/v1/jobs/" + blocker)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(raw), `"state": "running"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the blocker never ran: %s", raw)
		}
	}
	// The cancel-while-running case stretches the first scenario so the
	// cancel can land inside it.
	firstScale := "0.05"
	if name == "lifecycle_cancel_running" {
		firstScale = "5"
	}
	pinned := post("/api/v1/jobs", `{"name":"pinned","parallelism":1,"scenarios":[`+
		`{"profile":"429.mcf","scale":`+firstScale+`,"name":"first"},{"profile":"470.lbm","scale":0.05,"name":"second"}],`+
		`"telemetry":{"interval_insns":50000}}`, http.StatusAccepted)
	ef := FollowEvents(t, base+"/api/v1/jobs/"+pinned)
	await("opened its stream", ef.Opened)

	switch name {
	case "lifecycle_done":
		cancel(blocker)
	case "lifecycle_cancel_queued":
		cancel(pinned)
		cancel(blocker)
	case "lifecycle_cancel_running":
		cancel(blocker)
		await("streamed a telemetry window", ef.Telemetry)
		cancel(pinned)
	default:
		t.Fatalf("unknown pinned case %q", name)
	}

	var frames []string
	select {
	case frames = <-ef.Lines:
	case <-time.After(120 * time.Second):
		t.Fatal("the pinned job's stream never ended")
	}
	journal := JournalLines(t, st, pinned)
	if name == "lifecycle_cancel_running" {
		// How many windows fit before a cancel lands is the one thing in
		// these sequences that wall time decides.
		journal, frames = dropTelemetry(journal), dropTelemetry(frames)
	}
	return []byte("# journal\n" + strings.Join(journal, "\n") + "\n# stream\n" + strings.Join(frames, "\n") + "\n")
}

// FatesBody is the submission every job in the WriteFatesJournal fixture
// carries.
const FatesBody = `{"name":"fates","parallelism":1,"scenarios":[` +
	`{"profile":"429.mcf","scale":0.05,"name":"first"},{"profile":"470.lbm","scale":0.05,"name":"second"}]}`

// WriteFatesJournal writes, record by record, a journal holding one job
// in each state a restarting daemon can find one in — job-1 finished
// done, job-2 started with one of its two rows journaled, job-3 still
// queued, job-4 queued with its client's cancel journaled — and closes
// the store. Every time and id in it is fixed, so what a daemon serves
// for the jobs it restores terminal can be pinned byte for byte.
func WriteFatesJournal(t testing.TB, dir string) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	const trace = "0123456789abcdef0123456789abcdef"
	submitted := func(id string) store.Record {
		return store.Record{Kind: store.KindSubmitted, Job: id, Time: at(0), Submitted: &store.SubmittedRecord{
			Name: "fates", Scenarios: 2, Request: json.RawMessage(FatesBody), TraceID: trace}}
	}
	row := func(i int, name, suite string, insns uint64) store.Record {
		return store.Record{Kind: store.KindRow, Time: at(2), Row: &store.RowRecord{Index: i, Row: export.Row{
			Scenario: name, Suite: suite, Scale: 0.05, GuestInsns: insns, IMPct: 1.5, BBMPct: 8.5, SBMPct: 90,
			HostAppInsns: 3 * insns, TOLInsns: insns / 4, TOLPct: 7.69, SBMCost: 2.75,
			BBTranslations: 40, SBTranslations: 6, Dispatches: 900, Validations: 12, PageTransfers: 5, SyscallSyncs: 2,
			Overhead: map[string]uint64{"interp": 10, "bb_trans": 20, "sb_trans": 30, "prologue": 40, "chaining": 50, "lookup": 60, "other": 70},
			WallMS:   12.5, GuestMIPS: 33.25, HostMIPS: 99.75}}}
	}
	job := func(id string, recs ...store.Record) []store.Record {
		for i := range recs {
			recs[i].Job = id
		}
		return recs
	}
	span := func(name string, from, to int) store.Record {
		sp := obs.NewSpan(trace, "", name, "fixture", at(from), at(to))
		sp.SpanID = fmt.Sprintf("%016x", from*16+to)
		return store.Record{Kind: store.KindSpan, Time: at(to), Span: &store.SpanRecord{Span: sp}}
	}
	var recs []store.Record
	recs = append(recs, job("job-1",
		submitted("job-1"),
		span("queue-wait", 0, 1),
		store.Record{Kind: store.KindStarted, Time: at(1)},
		store.Record{Kind: store.KindTelemetry, Time: at(1), Telemetry: &store.TelemetryRecord{Index: 0, Scenario: "first",
			Window: telemetry.Window{Insns: 1024, Simple: 600, Memory: 300, Branch: 124, Loads: 200, Stores: 100, Taken: 60}}},
		row(0, "first", "SPECINT2006", 100_000),
		row(1, "second", "SPECFP2006", 200_000),
		span("job job-1", 0, 3),
		store.Record{Kind: store.KindFinished, Time: at(3), Finished: &store.FinishedRecord{State: "done", WallMS: 1234.5, Parallelism: 1}},
	)...)
	recs = append(recs, job("job-2",
		submitted("job-2"),
		store.Record{Kind: store.KindStarted, Time: at(1)},
		row(0, "first", "SPECINT2006", 100_000),
	)...)
	recs = append(recs, submitted("job-3"))
	recs = append(recs, job("job-4",
		submitted("job-4"),
		store.Record{Kind: store.KindCancelRequested, Time: at(1)},
	)...)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
