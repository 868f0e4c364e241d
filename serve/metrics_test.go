package serve_test

import (
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"darco/internal/testutil"
	"darco/obs"
	"darco/serve"
	"darco/store"
)

// metricValue reads one unlabelled sample from a /metrics exposition.
func metricValue(t *testing.T, exposition []byte, name string) float64 {
	t.Helper()
	for line := range strings.SplitSeq(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestMetricFamilies pins the daemon's /metrics family list — every
// name, help text and type, in order — without a store and over a
// durable one, whose latency histograms join the list. A family that
// appears, goes, is renamed or moves shows up as a golden diff. Over
// the store, the one job it runs is journaled through Append and, under
// the default lifecycle policy, fsynced: both histograms have counted.
func TestMetricFamilies(t *testing.T) {
	for _, name := range []string{"metrics_families", "metrics_families_store"} {
		t.Run(name, func(t *testing.T) {
			var opts serve.Options
			durable := name == "metrics_families_store"
			if durable {
				sm := &store.Metrics{
					AppendSeconds: obs.NewHistogram(obs.ExpBuckets(1e-6, 4, 10)),
					FsyncSeconds:  obs.NewHistogram(obs.ExpBuckets(1e-6, 4, 10)),
				}
				st, err := store.Open(t.TempDir(), store.Options{Metrics: sm})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				opts.Store, opts.StoreMetrics = st, sm
			}
			_, ts := newTestServer(t, opts)
			job := submit(t, ts.URL, `{"scenarios":[{"profile":"429.mcf","scale":0.05}]}`, http.StatusAccepted)
			waitState(t, ts.URL, job.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
			raw := fetch(t, ts.URL+"/metrics", http.StatusOK, "text/plain")
			testutil.CheckGolden(t, filepath.Join("testdata", name+".golden"), testutil.PromFamilies(raw),
				*updatePins, "go test ./serve -run TestMetricFamilies -update")
			if !durable {
				return
			}
			for _, name := range []string{"darco_store_append_seconds_count", "darco_store_fsync_seconds_count"} {
				if v := metricValue(t, raw, name); v <= 0 {
					t.Errorf("%s = %g after one durable job, want > 0", name, v)
				}
			}
		})
	}
}
