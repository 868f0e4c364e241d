package sched_test

import (
	"net/http"
	"path/filepath"
	"testing"

	"darco/internal/testutil"
	"darco/obs"
	"darco/sched"
	"darco/store"
)

// TestMetricFamilies pins the coordinator's /metrics family list —
// every name, help text and type, in order — over a durable store with
// its latency histograms. A family that appears, goes, is renamed or
// moves shows up as a golden diff.
func TestMetricFamilies(t *testing.T) {
	sm := &store.Metrics{
		AppendSeconds: obs.NewHistogram(obs.ExpBuckets(1e-6, 4, 10)),
		FsyncSeconds:  obs.NewHistogram(obs.ExpBuckets(1e-6, 4, 10)),
	}
	st, err := store.Open(t.TempDir(), store.Options{Metrics: sm})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, coord := newCoordinator(t, sched.Options{Store: st, StoreMetrics: sm})
	raw := fetch(t, coord.URL+"/metrics", http.StatusOK, "text/plain")
	testutil.CheckGolden(t, filepath.Join("testdata", "metrics_families.golden"), testutil.PromFamilies(raw),
		*updatePins, "go test ./sched -run TestMetricFamilies -update")
}
