package perf

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// figRows are the Fig. 4–7 views of the one measured suite campaign.
var figRows = []string{
	"Fig4ModeDistribution", "Fig5EmulationCost",
	"Fig6TOLOverhead", "Fig7OverheadBreakdown",
}

// TestSchema1Goldens reads every committed schema-1 snapshot and checks
// the v1 normalization: the figure rows — which schema 1 stamped with a
// copy of the campaign's cost triple — come back marked CostShared, and
// the rows that really were measured do not.
func TestSchema1Goldens(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 4 {
		t.Fatalf("expected the committed BENCH_1–4 goldens, found %v", matches)
	}
	for _, path := range matches {
		snap, err := ReadSnapshot(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if snap.Schema > 1 {
			continue // schema-2 snapshots are exercised by round-trip below
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			cam, ok := snap.Benches[SuiteCampaignBench]
			if !ok {
				t.Fatal("golden missing SuiteCampaign row")
			}
			if cam.SharesCost() {
				t.Fatal("SuiteCampaign must own its measurement")
			}
			for _, name := range figRows {
				b, ok := snap.Benches[name]
				if !ok {
					t.Fatalf("golden missing %s", name)
				}
				if b.CostShared != SuiteCampaignBench {
					t.Errorf("%s: CostShared = %q, want %q (schema-1 duplicate not normalized)",
						name, b.CostShared, SuiteCampaignBench)
				}
			}
			for name, b := range snap.Benches {
				isFig := false
				for _, f := range figRows {
					isFig = isFig || f == name
				}
				if !isFig && b.SharesCost() {
					t.Errorf("%s: measured row wrongly marked as sharing %q", name, b.CostShared)
				}
			}
		})
	}
}

// TestSnapshotRoundTrip re-encodes each golden and decodes it back:
// the normalized in-memory form must be stable under a round trip.
func TestSnapshotRoundTrip(t *testing.T) {
	matches, _ := filepath.Glob(filepath.Join("..", "BENCH_*.json"))
	for _, path := range matches {
		snap, err := ReadSnapshot(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		data, err := snap.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", path, err)
		}
		again, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("%s: re-decode: %v", path, err)
		}
		if !reflect.DeepEqual(snap, again) {
			t.Errorf("%s: snapshot not stable under encode/decode round trip", path)
		}
	}
}

func TestDecodeSnapshotRejectsFutureSchema(t *testing.T) {
	if _, err := DecodeSnapshot([]byte(`{"schema": 3, "benches": {}}`)); err == nil {
		t.Fatal("schema 3 accepted; reader must refuse snapshots it cannot interpret")
	}
}

func TestNextBenchPath(t *testing.T) {
	dir := t.TempDir()
	p, err := NextBenchPath(dir)
	if err != nil || filepath.Base(p) != "BENCH_1.json" {
		t.Fatalf("empty dir: %v, %v", p, err)
	}
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_x.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err = NextBenchPath(dir)
	if err != nil || filepath.Base(p) != "BENCH_11.json" {
		t.Fatalf("numbered dir: %v, %v", p, err)
	}
}

func TestWriteAutoNumbers(t *testing.T) {
	dir := t.TempDir()
	s := &Snapshot{Schema: 2, Scale: 0.5, Benches: map[string]Bench{"B": {NsPerOp: 1}}}
	p1, err := s.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p1) != "BENCH_1.json" || filepath.Base(p2) != "BENCH_2.json" {
		t.Fatalf("wrote %s then %s", p1, p2)
	}
}
