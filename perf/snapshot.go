package perf

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"

	"darco/export"
	"darco/obs"
)

// SchemaVersion is the BENCH snapshot schema this package writes.
// Schema 1 (BENCH_1–4) carried ns/allocs/bytes and headline metrics
// only; schema 2 adds per-bench engine-counter snapshots and an
// explicit cost-sharing marker for the figure rows that are different
// views of one measured campaign.
const SchemaVersion = 2

// SuiteCampaignBench is the snapshot row holding the one measured
// suite-campaign cost that the Fig. 4–7 rows share.
const SuiteCampaignBench = "SuiteCampaign"

// Bench is one benchmark row of a snapshot.
type Bench struct {
	// Wall and allocation cost of the measured run. Zero (and omitted
	// from the JSON) when CostShared names the row that was actually
	// measured — schema 1 instead duplicated the shared values, which
	// made one sample look like five. The gate checks allocs/op; wall
	// and bytes are kept as data.
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`

	// Metrics are the row's headline values (figure averages,
	// emulation speeds). Keys containing "MIPS" or "KIPS" are
	// wall-derived and machine-dependent; everything else derives from
	// bit-identical Stats and is gated exactly.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// CostShared names the bench whose measured ns/allocs/bytes this
	// row reuses ("" = this row was measured itself).
	CostShared string `json:"cost_shared,omitempty"`

	// Counters is the engine profiling-counter snapshot of the
	// measured run (schema 2; nil on schema-1 rows and on rows that
	// share another row's measurement).
	Counters *obs.EngineCountersSnapshot `json:"counters,omitempty"`
}

// SharesCost reports whether the row reuses another row's measured
// cost, so the gate skips its duplicate ns/allocs/bytes.
func (b *Bench) SharesCost() bool { return b.CostShared != "" }

// Snapshot is one BENCH_<n>.json: the perf trajectory point a PR
// leaves behind. Future PRs regenerate it with `darco-bench -json .`
// and gate against the committed history with `darco-perf gate`;
// absolute wall numbers are machine-dependent, the counters and
// figure metrics are not.
type Snapshot struct {
	Schema    int              `json:"schema"`
	CreatedAt string           `json:"created_at"`
	GoVersion string           `json:"go_version"`
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	Scale     float64          `json:"scale"`
	Benches   map[string]Bench `json:"benches"`
}

// BenchNames lists the snapshot's benchmark names sorted, for stable
// reporting.
func (s *Snapshot) BenchNames() []string {
	return slices.Sorted(maps.Keys(s.Benches))
}

// DecodeSnapshot parses a BENCH snapshot, accepting schema 1 and 2.
// Schema-1 documents are normalized in memory: rows whose cost triple
// is byte-identical to the SuiteCampaign row's (the Fig. 4–7 views of
// the one measured campaign) get CostShared set, so downstream
// consumers never double-count the shared sample. The Schema field
// keeps the value read from disk for provenance.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("perf: decoding snapshot: %w", err)
	}
	switch s.Schema {
	case 1:
		s.normalizeV1()
	case 2:
	default:
		return nil, fmt.Errorf("perf: unsupported BENCH schema %d", s.Schema)
	}
	return &s, nil
}

// ReadSnapshot reads and decodes one BENCH_<n>.json file.
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s *Snapshot) normalizeV1() {
	cam, ok := s.Benches[SuiteCampaignBench]
	if !ok {
		return
	}
	for name, b := range s.Benches {
		if name == SuiteCampaignBench || b.CostShared != "" {
			continue
		}
		if b.NsPerOp == cam.NsPerOp && b.AllocsPerOp == cam.AllocsPerOp && b.BytesPerOp == cam.BytesPerOp {
			b.CostShared = SuiteCampaignBench
			s.Benches[name] = b
		}
	}
}

// Encode marshals the snapshot the way every darco JSON artifact is
// written (two-space indent, trailing newline) so the committed files
// stay diff-friendly.
func (s *Snapshot) Encode() ([]byte, error) {
	return export.EncodeJSON(s)
}

// Write writes the snapshot as the next BENCH_<n>.json in dir and
// returns the written path.
func (s *Snapshot) Write(dir string) (string, error) {
	path, err := NextBenchPath(dir)
	if err != nil {
		return "", err
	}
	data, err := s.Encode()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

var benchFileRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// NextBenchPath returns the path of the next BENCH_<n>.json in dir
// (1 + the highest existing snapshot number).
func NextBenchPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	next := 1
	for _, e := range entries {
		m := benchFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		var n int
		fmt.Sscanf(m[1], "%d", &n)
		if n >= next {
			next = n + 1
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), nil
}
