package export_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	darco "darco"
	"darco/export"
	"darco/internal/testutil"
	"darco/internal/timing"
	"darco/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedScenarios is the exporter's pinned test campaign: three small
// workloads, one with the timing simulator attached so the cycles/ipc
// fields are exercised.
func fixedScenarios() []darco.Scenario {
	p1, _ := workload.ByName("429.mcf")
	p2, _ := workload.ByName("458.sjeng")
	p3, _ := workload.ByName("470.lbm")
	return []darco.Scenario{
		{Name: "429.mcf", Profile: p1, Scale: 0.05},
		{Name: "458.sjeng", Profile: p2, Scale: 0.05},
		{Name: "470.lbm-timing", Profile: p3, Scale: 0.05,
			Options: []darco.Option{darco.WithTiming(timing.DefaultConfig())}},
	}
}

func runCampaign(t *testing.T, parallelism int) *darco.CampaignReport {
	t.Helper()
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RunCampaign(context.Background(), fixedScenarios(), darco.WithParallelism(parallelism))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	return rep
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	testutil.CheckGolden(t, filepath.Join("testdata", name), got, *update, "go test ./export -update")
}

func TestGoldenJSONAndCSVRoundTrip(t *testing.T) {
	rep := runCampaign(t, 1)

	var jsonBuf bytes.Buffer
	if err := export.WriteJSON(&jsonBuf, rep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "campaign_golden.json", jsonBuf.Bytes())
	if !strings.Contains(jsonBuf.String(), `"schema": 1`) {
		t.Error("JSON document missing schema version")
	}
	if strings.Contains(jsonBuf.String(), "wall_ms") {
		t.Error("deterministic JSON export leaked wall-clock fields")
	}

	var csvBuf bytes.Buffer
	if err := export.WriteCSV(&csvBuf, rep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "campaign_golden.csv", csvBuf.Bytes())
	lines := strings.Split(strings.TrimRight(csvBuf.String(), "\n"), "\n")
	if len(lines) != 1+len(rep.Results) {
		t.Errorf("CSV has %d lines, want header + %d rows", len(lines), len(rep.Results))
	}
}

func TestParallelAndSerialCampaignsExportIdenticalBytes(t *testing.T) {
	serial := runCampaign(t, 1)
	parallel := runCampaign(t, 3)

	render := func(rep *darco.CampaignReport) (string, string, string) {
		var j, c, h bytes.Buffer
		if err := export.WriteJSON(&j, rep); err != nil {
			t.Fatal(err)
		}
		if err := export.WriteCSV(&c, rep); err != nil {
			t.Fatal(err)
		}
		if err := export.WriteHTML(&h, rep); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String(), h.String()
	}
	js, cs, hs := render(serial)
	jp, cp, hp := render(parallel)
	if js != jp {
		t.Error("JSON export differs between serial and parallel campaigns")
	}
	if cs != cp {
		t.Error("CSV export differs between serial and parallel campaigns")
	}
	if hs != hp {
		t.Error("HTML export differs between serial and parallel campaigns")
	}
}

func TestCSVStreamMatchesWholeReportWriter(t *testing.T) {
	scenarios := fixedScenarios()
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	stream, err := export.NewCSVStream(&streamed, len(scenarios))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RunCampaign(context.Background(), scenarios,
		darco.WithParallelism(3), darco.WithScenarioDone(stream.Done))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	if err := export.WriteCSV(&whole, rep); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != whole.String() {
		t.Errorf("streamed CSV differs from whole-report CSV:\n%s\nvs:\n%s", streamed.String(), whole.String())
	}
}

func TestGoldenNDJSON(t *testing.T) {
	rep := runCampaign(t, 1)
	var buf bytes.Buffer
	if err := export.WriteNDJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "campaign_golden.ndjson", buf.Bytes())
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(rep.Results) {
		t.Fatalf("NDJSON has %d lines, want %d", len(lines), len(rep.Results))
	}
	for i, line := range lines {
		var row export.Row
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d is not a JSON object: %v", i, err)
		}
		if row.Scenario != rep.Results[i].Scenario.Name {
			t.Errorf("line %d is %q, want scenario order %q", i, row.Scenario, rep.Results[i].Scenario.Name)
		}
	}
	if strings.Contains(buf.String(), "wall_ms") {
		t.Error("deterministic NDJSON export leaked wall-clock fields")
	}
}

// TestNDJSONStreamParallelMatchesSerialBytes is the satellite
// acceptance test: the streaming NDJSON writer reorders
// completion-order rows to scenario order, so serial and parallel
// campaigns produce byte-identical output, which also matches the
// whole-report writer.
func TestNDJSONStreamParallelMatchesSerialBytes(t *testing.T) {
	scenarios := fixedScenarios()
	run := func(parallelism int) (string, *darco.CampaignReport) {
		eng, err := darco.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		var streamed bytes.Buffer
		stream := export.NewNDJSONStream(&streamed, len(scenarios))
		rep, err := eng.RunCampaign(context.Background(), scenarios,
			darco.WithParallelism(parallelism), darco.WithScenarioDone(stream.Done))
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if err := stream.Close(); err != nil {
			t.Fatal(err)
		}
		return streamed.String(), rep
	}
	serial, _ := run(1)
	parallel, rep := run(3)
	if serial != parallel {
		t.Errorf("streamed NDJSON differs between serial and parallel campaigns:\n%s\nvs:\n%s", serial, parallel)
	}
	var whole bytes.Buffer
	if err := export.WriteNDJSON(&whole, rep); err != nil {
		t.Fatal(err)
	}
	if parallel != whole.String() {
		t.Errorf("streamed NDJSON differs from whole-report NDJSON:\n%s\nvs:\n%s", parallel, whole.String())
	}
}

func TestNDJSONStreamCloseIncomplete(t *testing.T) {
	var buf bytes.Buffer
	s := export.NewNDJSONStream(&buf, 2)
	s.Done(1, &darco.ScenarioResult{}) // out of order: row 0 has not arrived
	s.Done(2, &darco.ScenarioResult{}) // out of range: ignored
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "0 of 2") {
		t.Errorf("incomplete stream close error = %v", err)
	}
	s.Done(0, &darco.ScenarioResult{})
	s.Done(0, &darco.ScenarioResult{}) // already flushed: ignored
	if err := s.Close(); err != nil || strings.Count(buf.String(), "\n") != 2 {
		t.Errorf("complete stream: close error %v, rows:\n%s", err, buf.String())
	}
}

func TestFailedScenarioRow(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	rep := &darco.CampaignReport{Results: []darco.ScenarioResult{{
		Scenario: darco.Scenario{Name: "broken", Profile: p, Scale: 0.05},
		Err:      errors.New("boom, with \"quotes\" and, commas"),
	}}}
	rows := export.Rows(rep)
	if rows[0].Error == "" || rows[0].GuestInsns != 0 {
		t.Errorf("failed row not flagged: %+v", rows[0])
	}
	var csvBuf bytes.Buffer
	if err := export.WriteCSV(&csvBuf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), `"error: boom, with ""quotes"" and, commas"`) {
		t.Errorf("CSV quoting broken:\n%s", csvBuf.String())
	}
	var htmlBuf bytes.Buffer
	if err := export.WriteHTML(&htmlBuf, rep); err != nil {
		t.Fatal(err)
	}
}

func TestWallTimesOptIn(t *testing.T) {
	rep := runCampaign(t, 1)
	var j bytes.Buffer
	if err := export.WriteJSON(&j, rep, export.WithWallTimes()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wall_ms", "parallelism", "guest_mips"} {
		if !strings.Contains(j.String(), want) {
			t.Errorf("WithWallTimes JSON missing %q", want)
		}
	}
	var c bytes.Buffer
	if err := export.WriteCSV(&c, rep, export.WithWallTimes()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(c.String(), "\n", 2)[0], "wall_ms") {
		t.Error("WithWallTimes CSV header missing wall_ms")
	}
}

func TestHTMLDashboardContent(t *testing.T) {
	rep := runCampaign(t, 1)
	var h bytes.Buffer
	if err := export.WriteHTML(&h, rep); err != nil {
		t.Fatal(err)
	}
	out := h.String()
	for _, want := range []string{
		"<svg", "429.mcf", "470.lbm-timing",
		"Execution-mode distribution", "TOL overhead breakdown",
		"prefers-color-scheme: dark", "<table>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(out, "src=") || strings.Contains(out, "http://") || strings.Contains(out, "https://") {
		t.Error("dashboard references external assets; must be self-contained")
	}
}
