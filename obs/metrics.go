// Package obs is the observability layer shared by every tier of the
// DARCO stack: a Prometheus text-exposition writer with the
// fixed-bucket histograms it renders, a lightweight tracing span model
// with HTTP context propagation, and the atomic hot-path profiling
// counters the engine exposes behind darco.WithObsCounters.
//
// The package deliberately imports nothing from the rest of the module
// so that every tier — engine internals, the store WAL, the serve
// daemon, the sched coordinator — can depend on it without cycles.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// ContentType is the HTTP Content-Type of a Writer's output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Writer renders Prometheus text exposition (version 0.0.4) at scrape
// time. Each call writes one whole family — its # HELP and # TYPE lines
// and its samples — after the previous one, so a scrape's layout is
// the caller's call order and stays byte-stable between scrapes. The
// values are whatever the caller computed for this scrape: nothing is
// kept between scrapes except the Histograms, the one push-fed type.
type Writer struct{ b []byte }

// Bytes returns the exposition written so far.
func (w *Writer) Bytes() []byte { return w.b }

func (w *Writer) family(name, help, typ string) {
	w.b = fmt.Appendf(w.b, "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, typ)
}

// Counter writes an unlabelled counter family.
func (w *Writer) Counter(name, help string, v uint64) {
	w.family(name, help, "counter")
	w.b = fmt.Appendf(w.b, "%s %d\n", name, v)
}

// Gauge writes an unlabelled gauge family.
func (w *Writer) Gauge(name, help string, v float64) {
	w.family(name, help, "gauge")
	w.b = fmt.Appendf(w.b, "%s %s\n", name, formatValue(v))
}

// Series is one sample of a labelled family: its label value and its
// value.
type Series struct {
	Label string
	Value float64
}

// LabelledGauge writes a gauge family with one label, a sample per
// series in the order given.
func (w *Writer) LabelledGauge(name, help, label string, series ...Series) {
	w.family(name, help, "gauge")
	for _, s := range series {
		w.b = fmt.Appendf(w.b, "%s{%s=\"%s\"} %s\n", name, label, labelEscaper.Replace(s.Label), formatValue(s.Value))
	}
}

// Histogram writes h as a histogram family: cumulative buckets, sum
// and count. The count is the +Inf bucket's, so the two agree even when
// observations land mid-scrape.
func (w *Writer) Histogram(name, help string, h *Histogram) {
	w.family(name, help, "histogram")
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		w.b = fmt.Appendf(w.b, "%s_bucket{le=\"%s\"} %d\n", name, le, cum)
	}
	sum := math.Float64frombits(h.sum.Load())
	w.b = fmt.Appendf(w.b, "%s_sum %s\n%s_count %d\n", name, formatValue(sum), name, cum)
}

// Histogram counts observations into fixed buckets. Observe is
// lock-free (atomic adds), so it is safe from hot paths and from many
// goroutines; buckets are fixed at construction, so there is no
// resizing and no allocation after NewHistogram.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
}

// NewHistogram builds a histogram over the given upper bucket bounds
// (sorted and deduplicated; the +Inf bucket is implicit).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	out := b[:0]
	for _, v := range b {
		if math.IsInf(v, +1) || math.IsNaN(v) || len(out) > 0 && v == out[len(out)-1] {
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
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
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

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)
