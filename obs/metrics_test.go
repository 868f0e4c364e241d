package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	var w Writer
	w.Counter("darco_things_total", "Things seen.", 4)
	w.Gauge("darco_depth", "Queue depth.", 7)
	w.LabelledGauge("darco_jobs", "Jobs by state.", "state", Series{"queued", 2}, Series{"running", 1})

	want := `# HELP darco_things_total Things seen.
# TYPE darco_things_total counter
darco_things_total 4
# HELP darco_depth Queue depth.
# TYPE darco_depth gauge
darco_depth 7
# HELP darco_jobs Jobs by state.
# TYPE darco_jobs gauge
darco_jobs{state="queued"} 2
darco_jobs{state="running"} 1
`
	if got := string(w.Bytes()); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestVecSeriesOrderStable: families come out in call order and a
// labelled family's series in the order given, whatever the values.
func TestVecSeriesOrderStable(t *testing.T) {
	states := []string{"queued", "running", "done", "failed"}
	render := func(running float64) string {
		var w Writer
		series := make([]Series, len(states))
		for i, s := range states {
			series[i] = Series{Label: s}
		}
		series[1].Value = running
		w.LabelledGauge("darco_jobs", "Jobs by state.", "state", series...)
		w.Gauge("darco_after", "Written second.", 0)
		return string(w.Bytes())
	}
	for _, out := range []string{render(0), render(5)} {
		at := func(s string) int { return strings.Index(out, s) }
		for i := 1; i < len(states); i++ {
			if at(`{state="`+states[i-1]+`"}`) > at(`{state="`+states[i]+`"}`) {
				t.Fatalf("series out of order:\n%s", out)
			}
		}
		if at("darco_jobs{") > at("# HELP darco_after") {
			t.Fatalf("families out of call order:\n%s", out)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)

	var w Writer
	w.Histogram("darco_wait_seconds", "Queue wait.", h)
	want := `# HELP darco_wait_seconds Queue wait.
# TYPE darco_wait_seconds histogram
darco_wait_seconds_bucket{le="0.1"} 1
darco_wait_seconds_bucket{le="1"} 2
darco_wait_seconds_bucket{le="10"} 2
darco_wait_seconds_bucket{le="+Inf"} 3
darco_wait_seconds_sum 100.55
darco_wait_seconds_count 3
`
	if got := string(w.Bytes()); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	// Unsorted, duplicated and +Inf bounds are normalised away.
	h := NewHistogram([]float64{2, 1, 2, math.Inf(+1)})
	h.Observe(1) // le="1" is inclusive
	h.Observe(2.0000001)
	var w Writer
	w.Histogram("h", "", h)
	out := string(w.Bytes())
	for _, want := range []string{`h_bucket{le="1"} 1` + "\n", `h_bucket{le="2"} 1` + "\n", `h_bucket{le="+Inf"} 2` + "\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("want %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "_bucket"); n != 3 {
		t.Fatalf("%d buckets, want 3:\n%s", n, out)
	}
}

func TestLabelEscaping(t *testing.T) {
	var w Writer
	w.LabelledGauge("darco_w", "Line one\nline two \\ end.", "worker", Series{`http://a"b\c`, 1})
	out := string(w.Bytes())
	for _, want := range []string{
		`darco_w{worker="http://a\"b\\c"} 1` + "\n",
		`# HELP darco_w Line one\nline two \\ end.` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("want %q in:\n%s", want, out)
		}
	}
}

// scrapeCount writes h as family darco_h and returns the values of its
// +Inf bucket and _count lines.
func scrapeCount(h *Histogram) (inf, count string) {
	var w Writer
	w.Histogram("darco_h", "", h)
	for line := range strings.SplitSeq(string(w.Bytes()), "\n") {
		if v, ok := strings.CutPrefix(line, `darco_h_bucket{le="+Inf"} `); ok {
			inf = v
		}
		if v, ok := strings.CutPrefix(line, "darco_h_count "); ok {
			count = v
		}
	}
	return inf, count
}

// TestConcurrentUpdates observes from many goroutines at once; once they
// are done the count is exact.
func TestConcurrentUpdates(t *testing.T) {
	h := NewHistogram(ExpBuckets(0.001, 10, 4))
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if _, count := scrapeCount(h); count != "8000" {
		t.Fatalf("histogram count = %s, want 8000", count)
	}
}

// TestScrapeDuringObserve races scrapes against observations: every
// scrape's _count equals its +Inf bucket, and once the writers are done
// the count is exact.
func TestScrapeDuringObserve(t *testing.T) {
	h := NewHistogram(ExpBuckets(0.001, 2, 16))
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if inf, count := scrapeCount(h); inf != count {
					t.Errorf("mid-update scrape: +Inf bucket %s, count %s", inf, count)
					return
				}
			}
		}()
	}
	for range 4 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := range 5000 {
				h.Observe(float64(i%100) / 100)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if _, count := scrapeCount(h); count != "20000" {
		t.Fatalf("histogram count = %s, want 20000", count)
	}
}

func TestEngineCountersSnapshot(t *testing.T) {
	var c EngineCounters
	c.DecodeHits.Add(9)
	c.DecodeMisses.Add(1)
	c.BlockHits.Add(3)
	c.BlockMisses.Add(1)
	s := c.Snapshot()
	if got := s.DecodeHitRate(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("decode hit rate = %g", got)
	}
	if got := s.BlockHitRate(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("block hit rate = %g", got)
	}
	d := s.Sub(EngineCountersSnapshot{DecodeHits: 4})
	if d.DecodeHits != 5 {
		t.Fatalf("sub = %+v", d)
	}
}
