package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"darco/obs"
)

// spanRef names a span a tracer is recording; the zero value is "none".
type spanRef int

// tracer records obs.Spans in memory around the benchmark's own calls
// into each layer and writes them out when the run ends. A nil tracer
// records nothing, so the untraced pass runs the same code.
type tracer struct {
	spans   []obs.Span
	traceID string
	traces  int
}

// newTrace starts a new trace id; every round gets its own.
func (t *tracer) newTrace() {
	if t == nil {
		return
	}
	t.traces++
	t.traceID = fmt.Sprintf("%032x", t.traces)
}

func (t *tracer) begin(parent spanRef, name, service string) spanRef {
	if t == nil {
		return 0
	}
	return t.add(parent, name, service, time.Now(), time.Time{})
}

func (t *tracer) end(s spanRef) {
	if t == nil || s == 0 {
		return
	}
	t.spans[s-1].End = time.Now().UnixNano()
}

// attr labels a span.
func (t *tracer) attr(s spanRef, key, value string) {
	if t != nil && s != 0 {
		t.spans[s-1].SetAttr(key, value)
	}
}

// add records a span over [start, end]; a zero end leaves it open.
func (t *tracer) add(parent spanRef, name, service string, start, end time.Time) spanRef {
	if t == nil {
		return 0
	}
	sp := obs.Span{
		TraceID: t.traceID,
		SpanID:  fmt.Sprintf("%016x", len(t.spans)+1),
		Name:    name,
		Service: service,
		Start:   start.UnixNano(),
	}
	if parent != 0 {
		sp.Parent = t.spans[parent-1].SpanID
	}
	if !end.IsZero() {
		sp.End = end.UnixNano()
	}
	t.spans = append(t.spans, sp)
	return spanRef(len(t.spans))
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its children cover (a campaign's children overlap).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[string][]obs.Span, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := map[string]time.Duration{}
	for _, sp := range t.spans {
		kids := children[sp.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, end := int64(0), sp.Start
		for _, k := range kids {
			if k.End > end {
				covered += k.End - max(k.Start, end)
				end = k.End
			}
		}
		self[sp.Name] += time.Duration(sp.End - sp.Start - covered)
	}
	return self
}

// printSelfTimes lists where the traced wall went, largest first.
func (t *tracer) printSelfTimes(workload string) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	var total time.Duration
	for name, d := range self {
		names = append(names, name)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names {
		fmt.Printf("# %s self-time %-28s %9.1f ms %5.1f%%\n", workload, name,
			float64(self[name])/1e6, 100*float64(self[name])/float64(total))
	}
}

// write renders the spans as a Chrome trace-event document Perfetto loads.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteChromeTrace(f, t.spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
