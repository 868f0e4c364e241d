package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func declared(defs []metricDef) []manifestMetric {
	out := make([]manifestMetric, len(defs))
	for i, d := range defs {
		out[i] = manifestMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound}
	}
	return out
}

// TestManifestMatchesProgram pins BENCHMARK.json to the tables the program
// emits from, and to the limits of the benchmark contract.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, declared(endToEnd)) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", m.EndToEnd, declared(endToEnd))
	}
	if !reflect.DeepEqual(m.PerLayer, declared(perLayer)) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", m.PerLayer, declared(perLayer))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var hasSetup bool
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q (unit %q) is outside the contract's character set", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s is declared twice", d.name)
		}
		seen[d.name] = true
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better is %q", d.name, d.better)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %g is outside (0, 0.25]", d.name, d.bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract", len(endToEnd), len(perLayer))
	}
}

// TestQuickPasses runs both passes of every workload in -quick mode: each
// must emit exactly its declared metrics (collect fails the pass
// otherwise) and no operation may fail — which covers the guestvm and
// seed-0 digest oracles, byte-identical tier exports, exact counts that
// repeat between rounds, and goroutines left behind.
func TestQuickPasses(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for trace, pass := range []func(workloadDef, options) (result, error){untracedPass, tracedPass} {
			res, err := pass(w, options{workload: w.name, seconds: 1, trace: trace, quick: true, out: out})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d operations failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := len(endToEnd)
			if trace == 1 {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), want)
			}
			if trace == 0 {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g", w.name, name, v.Value)
					}
				}
			}
		}
	}
}
