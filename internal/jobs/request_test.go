package jobs_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"darco/internal/jobs"
)

// refusals is every way a submission can be refused, whichever tier it
// reached; with a limit of three scenarios, the one a whole suite
// exceeds.
var refusals = []struct {
	name, body, wantErr string
}{
	{"bad json", `{`, "invalid request body"},
	{"trailing garbage", `{"scenarios":[{"profile":"429.mcf"}]}x`, "trailing data"},
	{"unknown field", `{"scenario":[{"profile":"429.mcf"}]}`, "unknown field"},
	{"no scenarios", `{}`, "no scenarios"},
	{"unknown profile", `{"scenarios":[{"profile":"999.nope"}]}`, "unknown profile"},
	{"negative scale", `{"scenarios":[{"profile":"429.mcf","scale":-1}]}`, "negative"},
	{"negative suite scale", `{"suite":{"scale":-1}}`, "negative"},
	{"negative parallelism", `{"parallelism":-2,"scenarios":[{"profile":"429.mcf"}]}`, "parallelism -2 is negative"},
	{"negative timeout", `{"scenario_timeout_ms":-5,"scenarios":[{"profile":"429.mcf"}]}`, "scenario_timeout_ms -5 is negative"},
	{"too many scenarios", `{"suite":{"scale":0.05}}`, "exceed the server limit of 3"},
	{"bad engine", `{"scenarios":[{"profile":"429.mcf"}],"engine":{"power":true,"freq_mhz":-5}}`, "engine configuration"},
	{"negative validation period", `{"scenarios":[{"profile":"429.mcf"}],"engine":{"validate_every_n_syncs":-1}}`, "negative"},
	{"window per instruction", `{"scenarios":[{"profile":"429.mcf"}],"telemetry":{"interval_insns":1}}`, "below the minimum"},
	{"window just under the floor", `{"scenarios":[{"profile":"429.mcf"}],"telemetry":{"interval_insns":1023}}`, "below the minimum"},
}

// Two submissions that pass: the suite with one more scenario, and (read
// back from a journal) a telemetry interval under the floor.
const (
	suiteAndExtra = `{"suite":{"scale":0.05},"scenarios":[{"profile":"470.lbm","name":"extra"}],"telemetry":{"interval_insns":1024}}`
	subFloor      = `{"scenarios":[{"profile":"429.mcf"}],"telemetry":{"interval_insns":100}}`
)

// TestSubmitValidation is the one table for the validator both daemons'
// Runners call: every way a submission can be refused, whichever tier
// it reached. (serve's and sched's tests of this name keep what is
// theirs: the HTTP edge, and that a refusal never reaches a worker.)
func TestSubmitValidation(t *testing.T) {
	for _, c := range refusals {
		t.Run(c.name, func(t *testing.T) {
			req, err := jobs.ParseSubmit([]byte(c.body))
			if err == nil {
				_, _, err = req.Validate(3, false)
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %v does not mention %q", err, c.wantErr)
			}
		})
	}

	// What passes compiles to the roster in campaign order — suite first
	// — and a ready engine.
	req, err := jobs.ParseSubmit([]byte(suiteAndExtra))
	if err != nil {
		t.Fatal(err)
	}
	roster, eng, err := req.Validate(0, false)
	if err != nil || eng == nil || len(roster) != 32 || roster[31].Name != "extra" || roster[0].Scale != 0.05 {
		t.Errorf("valid submission: %d scenarios, engine %v, err %v", len(roster), eng, err)
	}

	// The floor applies to new submissions only: a body read back from
	// the journal is raised to it instead of refused.
	req, err = jobs.ParseSubmit([]byte(subFloor))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := req.Validate(0, true); err != nil || req.Telemetry.IntervalInsns != jobs.MinTelemetryInterval {
		t.Errorf("restored sub-floor interval: %d, err %v", req.Telemetry.IntervalInsns, err)
	}
}

// FuzzParseSubmit holds the submission parser and validator on arbitrary
// bodies: no body panics ParseSubmit or Validate; a body Validate
// accepts is one JSON value (the journal keeps it as raw JSON); and its
// request marshals and parses back to the same roster, so what a daemon
// journals and restores runs what was submitted.
func FuzzParseSubmit(f *testing.F) {
	for _, c := range refusals {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(suiteAndExtra))
	f.Add([]byte(subFloor))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := jobs.ParseSubmit(body)
		if err != nil {
			return
		}
		roster, _, err := req.Validate(0, false)
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted %q, which is not one JSON value", body)
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted %q does not marshal: %v", body, err)
		}
		back, err := jobs.ParseSubmit(raw)
		if err != nil {
			t.Fatalf("accepted %q re-marshals to %s, which does not parse: %v", body, raw, err)
		}
		again, err := back.Roster()
		if err != nil {
			t.Fatalf("accepted %q re-marshals to %s, whose roster fails: %v", body, raw, err)
		}
		if !reflect.DeepEqual(again, roster) {
			t.Fatalf("accepted %q re-marshals to %s, whose roster differs", body, raw)
		}
	})
}
