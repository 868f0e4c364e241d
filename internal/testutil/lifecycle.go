package testutil

import (
	"bufio"
	"encoding/json"
	"fmt"
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

// DropTelemetry removes the telemetry lines from a pinned sequence: how
// many windows fit before a cancel lands is the one thing in it that
// wall time decides.
func DropTelemetry(lines []string) []string {
	var out []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "telemetry ") {
			out = append(out, l)
		}
	}
	return out
}

// PinnedSequences joins a journal and a stream rendering into the text
// the lifecycle goldens hold.
func PinnedSequences(journal, frames []string) []byte {
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
