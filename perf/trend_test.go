package perf

import (
	"strings"
	"testing"

	"darco/obs"
)

func trendHist(t *testing.T) []HistoryEntry {
	t.Helper()
	mk := func(ns, allocs float64, hits uint64) *Snapshot {
		ctrs := obs.EngineCountersSnapshot{
			DecodeHits: hits, DecodeMisses: 10,
			BlockHits: 400, BlockMisses: 6,
		}
		return &Snapshot{
			Schema: SchemaVersion,
			Scale:  0.5,
			Benches: map[string]Bench{
				"TableSpeedFunctional": {
					NsPerOp: ns, AllocsPerOp: allocs,
					Metrics:  map[string]float64{"guest-MIPS": 12},
					Counters: &ctrs,
				},
				SuiteCampaignBench: {NsPerOp: 10 * ns, AllocsPerOp: 50 * allocs},
				"Fig5EmulationCost": {
					Metrics:    map[string]float64{"cost-INT": 3.5},
					CostShared: SuiteCampaignBench,
				},
			},
		}
	}
	return []HistoryEntry{
		{N: 1, Path: "BENCH_1.json", Snap: mk(1e8, 20000, 1000)},
		{N: 2, Path: "BENCH_2.json", Snap: mk(1.05e8, 20000, 1000)},
		// Snapshot 3 drifts a deterministic counter: the trend must
		// surface a gate verdict and flag the point.
		{N: 3, Path: "BENCH_3.json", Snap: mk(1.02e8, 20000, 1400)},
	}
}

func TestWriteTrend(t *testing.T) {
	var b strings.Builder
	if err := WriteTrend(&b, trendHist(t)); err != nil {
		t.Fatal(err)
	}
	html := b.String()
	for _, want := range []string{
		"<svg",               // charts rendered
		"BENCH_1", "BENCH_3", // x labels
		"TableSpeedFunctional",         // measured series present
		"prefers-color-scheme: dark",   // dark variant
		"--series-1",                   // palette wiring
		"shares SuiteCampaign",         // latest table marks shared rows
		"counters.decode_hits drifted", // gate verdict annotation
		"class=\"flagpt\"",             // flagged point styling
	} {
		if !strings.Contains(html, want) {
			t.Errorf("trend HTML missing %q", want)
		}
	}
	// Wall time across snapshots is machine weather: no chart, no band,
	// no tile.
	for _, gone := range []string{"Wall time", "drift band", "functional run, latest"} {
		if strings.Contains(html, gone) {
			t.Errorf("trend HTML still carries %q", gone)
		}
	}
	// The shared fig row must not contribute an alloc series: its
	// name appears in the latest-snapshot table but never as a legend
	// entry of the normalized cost chart (legend entries render as
	// ...</span>Name</span>).
	if n := strings.Count(html, "</span>Fig5EmulationCost</span>"); n != 0 {
		t.Errorf("shared-cost row plotted %d times in cost charts; must not be double-plotted", n)
	}
	if !strings.Contains(html, "<td>Fig5EmulationCost</td>") {
		t.Error("shared row missing from the latest-snapshot table")
	}
}

func TestWriteTrendEmptyHistory(t *testing.T) {
	var b strings.Builder
	if err := WriteTrend(&b, nil); err == nil {
		t.Fatal("empty history should error, not render an empty page")
	}
}

// TestWriteTrendCommittedHistory smoke-tests the dashboard over the
// real committed goldens, the same input CI renders.
func TestWriteTrendCommittedHistory(t *testing.T) {
	hist, err := LoadHistory("..")
	if err != nil || len(hist) == 0 {
		t.Skipf("no committed history: %v", err)
	}
	var b strings.Builder
	if err := WriteTrend(&b, hist); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "TableSpeedTiming") {
		t.Fatal("committed history render missing expected bench series")
	}
}
