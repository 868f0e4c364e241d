// Package obs is the observability layer shared by every tier of the
// DARCO stack: a Prometheus-exposition metrics registry (counters,
// gauges, fixed-bucket histograms), a lightweight tracing span model
// with HTTP context propagation, and the atomic hot-path profiling
// counters the engine exposes behind darco.WithObsCounters.
//
// The package deliberately imports nothing from the rest of the module
// so that every tier — engine internals, the store WAL, the serve
// daemon, the sched coordinator — can depend on it without cycles.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry owns a set of metric families and renders them as
// Prometheus text exposition (version 0.0.4). Families are rendered in
// registration order and their samples in creation order, so a scrape's
// byte layout is stable — the daemon smoke tests grep for exact lines.
//
// Registration (Counter, Gauge, ...) panics on an invalid or duplicate
// family name: those are programmer errors, caught by the first scrape
// of any test. Sample updates (Add, Set, Observe) are lock-free and
// safe from any goroutine.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
	hooks  []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ContentType is the HTTP Content-Type for WritePrometheus output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// family is one metric family: a name, a type, and its samples.
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	mu    sync.Mutex
	order []*sample
	byKey map[string]*sample
}

// sample is one time series of a family. Exactly one of the value
// fields is live, picked by the family type.
type sample struct {
	labelVals []string
	ctr       atomic.Uint64 // counter: integral monotone count
	bits      atomic.Uint64 // gauge: float64 bits
	hist      *Histogram    // histogram
}

func (r *Registry) register(name, help, typ string, labels []string) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRE.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %q", name))
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, byKey: make(map[string]*sample)}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

func (f *family) get(values []string) *sample {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &sample{labelVals: append([]string(nil), values...)}
	f.byKey[key] = s
	f.order = append(f.order, s)
	return s
}

// Counter registers an unlabelled counter family.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	return &Counter{s: f.get(nil)}
}

// CounterVec registers a labelled counter family; With materializes a
// series per label-value tuple on first use.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels)}
}

// Gauge registers an unlabelled gauge family.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	return &Gauge{s: f.get(nil)}
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labels)}
}

// Histogram registers an unlabelled histogram family with the given
// upper bucket bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := NewHistogram(buckets)
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram adopts an externally constructed histogram into
// the registry — the pattern for instrumentation that lives below the
// daemon (the store's append/fsync latency) yet must surface on its
// /metrics.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	f := r.register(name, help, "histogram", nil)
	f.get(nil).hist = h
}

// OnScrape registers fn to run at the top of every WritePrometheus
// call, under the registry lock. Gauges derived from live state (queue
// depth, jobs by state) are refreshed here instead of on every
// mutation.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// Counter is a monotonically increasing integral count.
type Counter struct{ s *sample }

// Inc adds one.
func (c *Counter) Inc() { c.s.ctr.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.s.ctr.Add(delta) }

// Set overwrites the count — for families whose total is recomputed
// from authoritative state at scrape time (an OnScrape hook) rather
// than counted event by event.
func (c *Counter) Set(v uint64) { c.s.ctr.Store(v) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.s.ctr.Load() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the series for the given label values, creating it on
// first use. The returned Counter is cacheable.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{s: v.f.get(values)}
}

// Gauge is a float64 value that can go up and down.
type Gauge struct{ s *sample }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.s.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.s.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the series for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{s: v.f.get(values)}
}

// Histogram counts observations into fixed buckets. Observe is
// lock-free (atomic adds), so it is safe from hot paths and from many
// goroutines; buckets are fixed at construction, so there is no
// resizing and no allocation after NewHistogram.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// NewHistogram builds a standalone histogram over the given upper
// bucket bounds (sorted and deduplicated; the +Inf bucket is
// implicit). Use Registry.RegisterHistogram to expose it.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	out := b[:0]
	for i, v := range b {
		if math.IsInf(v, +1) || math.IsNaN(v) {
			continue
		}
		if i > 0 && len(out) > 0 && v == out[len(out)-1] {
			continue
		}
		out = append(out, v)
	}
	return &Histogram{bounds: out, counts: make([]atomic.Uint64, len(out)+1)}
}

// ExpBuckets returns count bounds growing geometrically from start by
// factor — the standard shape for latency histograms.
func ExpBuckets(start, factor float64, count int) []float64 {
	b := make([]float64, count)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LinearBuckets returns count bounds from start in steps of width —
// for bounded integral distributions like batch occupancy.
func LinearBuckets(start, width float64, count int) []float64 {
	b := make([]float64, count)
	for i := range b {
		b[i] = start + width*float64(i)
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // per bucket; last is +Inf
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Quantile estimates the q-quantile of the observed distribution from
// the bucket counts, interpolating linearly inside the containing
// bucket (the Prometheus histogram_quantile estimate). It is
// zero-value-safe: an empty histogram returns 0 for any q, and q is
// clamped into [0, 1]. Observations that landed in the +Inf bucket cap
// the estimate at the highest finite bound; a histogram whose every
// observation overflowed returns the mean (sum/count) as the best
// remaining estimate.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}

// Quantile is Histogram.Quantile over a captured snapshot, so one
// consistent cut can answer several quantiles.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: the estimate saturates at the highest finite
			// bound; with no finite bucket at all, fall back to the mean.
			if len(s.Bounds) == 0 {
				return s.Sum / float64(s.Count)
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		hi := s.Bounds[i]
		if cum+float64(c) >= rank {
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	if len(s.Bounds) > 0 {
		return s.Bounds[len(s.Bounds)-1]
	}
	return s.Sum / float64(s.Count)
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// WritePrometheus renders every family as Prometheus text exposition
// (content type "text/plain; version=0.0.4"), running the OnScrape
// hooks first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.hooks {
		fn()
	}
	var b strings.Builder
	for _, f := range r.fams {
		f.mu.Lock()
		order := append([]*sample(nil), f.order...)
		f.mu.Unlock()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range order {
			switch f.typ {
			case "counter":
				b.WriteString(f.name)
				writeLabels(&b, f.labels, s.labelVals, "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(s.ctr.Load(), 10))
				b.WriteByte('\n')
			case "gauge":
				b.WriteString(f.name)
				writeLabels(&b, f.labels, s.labelVals, "")
				b.WriteByte(' ')
				b.WriteString(formatValue(math.Float64frombits(s.bits.Load())))
				b.WriteByte('\n')
			case "histogram":
				snap := s.hist.Snapshot()
				var cum uint64
				for i, c := range snap.Counts {
					cum += c
					le := "+Inf"
					if i < len(snap.Bounds) {
						le = formatValue(snap.Bounds[i])
					}
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, f.labels, s.labelVals, le)
					b.WriteByte(' ')
					b.WriteString(strconv.FormatUint(cum, 10))
					b.WriteByte('\n')
				}
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, f.labels, s.labelVals, "")
				b.WriteByte(' ')
				b.WriteString(formatValue(snap.Sum))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, f.labels, s.labelVals, "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(snap.Count, 10))
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeLabels renders a {k="v",...} block; le, when non-empty, is
// appended as the histogram bucket bound label.
func writeLabels(b *strings.Builder, names, values []string, le string) {
	if len(names) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
