package perf

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"darco/obs"
)

// allocTol is the fractional allocs/op growth the gate tolerates.
// Allocation counts are near-exact, but MemStats deltas can see a
// handful of background-goroutine allocations.
const allocTol = 0.01

// CheckClass says how a signal is compared.
type CheckClass string

const (
	// ClassExact signals are machine-independent and must match
	// exactly: engine counters and Stats-derived figure metrics. A
	// mismatch means the code's deterministic behavior changed — if
	// that was intended, the fix is committing a fresh BENCH snapshot,
	// not loosening the gate.
	ClassExact CheckClass = "exact"
	// ClassTolerance signals are deterministic up to measurement slop
	// (allocs/op); they fail only on a regression beyond allocTol.
	ClassTolerance CheckClass = "tolerance"
)

// GateCheck is one signal comparison.
type GateCheck struct {
	Bench  string
	Signal string
	Class  CheckClass
	Base   float64
	Cand   float64
	OK     bool
	Note   string
}

// GateResult is the gate's full report.
type GateResult struct {
	Checks   []GateCheck
	Failures int // exact and tolerance breaches, missing benches
}

// Pass reports whether the candidate clears the gate.
func (r *GateResult) Pass() bool { return r.Failures == 0 }

func (r *GateResult) add(c GateCheck) {
	r.Checks = append(r.Checks, c)
	if !c.OK {
		r.Failures++
	}
}

// wallDerived reports whether a metric key is computed from wall time
// (emulation speeds) and therefore machine-dependent.
func wallDerived(key string) bool {
	return strings.Contains(key, "MIPS") || strings.Contains(key, "KIPS")
}

// counterSignals maps the engine counter fields, all deterministic and
// compared exactly.
var counterSignals = []struct {
	name string
	get  func(*obs.EngineCountersSnapshot) float64
}{
	{"counters.decode_hits", func(c *obs.EngineCountersSnapshot) float64 { return float64(c.DecodeHits) }},
	{"counters.decode_misses", func(c *obs.EngineCountersSnapshot) float64 { return float64(c.DecodeMisses) }},
	{"counters.block_hits", func(c *obs.EngineCountersSnapshot) float64 { return float64(c.BlockHits) }},
	{"counters.block_misses", func(c *obs.EngineCountersSnapshot) float64 { return float64(c.BlockMisses) }},
	{"counters.code_flushes", func(c *obs.EngineCountersSnapshot) float64 { return float64(c.CodeFlushes) }},
}

// Gate compares a candidate snapshot against a baseline signal by
// signal. Failures: a baseline bench missing from the candidate, any
// deterministic-counter or figure-metric drift (exact), a candidate row
// that drops the counters or the own measured cost its baseline row
// has (exact), and allocs/op growth beyond allocTol. Wall time and
// bytes/op are data, not checks: across machines raw ns/op is drift,
// not evidence — that is darco-perf ab's job. Benches only the
// candidate has (new coverage) are ignored; rows whose baseline marks
// them CostShared skip the cost check, so one measured campaign is
// gated once, not five times. Both snapshots should be at the same
// workload scale — the gate flags a scale mismatch as a failure up
// front.
func Gate(base, cand *Snapshot) *GateResult {
	r := &GateResult{}
	if base.Scale != cand.Scale {
		r.add(GateCheck{Bench: "-", Signal: "scale", Class: ClassExact,
			Base: base.Scale, Cand: cand.Scale, OK: false,
			Note: "snapshots measured at different workload scales are not comparable"})
		return r
	}
	for _, name := range base.BenchNames() {
		bb := base.Benches[name]
		cb, ok := cand.Benches[name]
		if !ok {
			r.add(GateCheck{Bench: name, Signal: "present", Class: ClassExact, OK: false,
				Note: "bench missing from candidate snapshot (coverage regression)"})
			continue
		}

		// Deterministic engine counters: exact.
		switch {
		case bb.Counters == nil:
		case cb.Counters == nil:
			r.add(GateCheck{Bench: name, Signal: "counters", Class: ClassExact, OK: false,
				Note: "engine counters missing from candidate row"})
		default:
			for _, sig := range counterSignals {
				b, c := sig.get(bb.Counters), sig.get(cb.Counters)
				chk := GateCheck{Bench: name, Signal: sig.name, Class: ClassExact, Base: b, Cand: c, OK: b == c}
				if !chk.OK {
					chk.Note = "deterministic counter drift; if intended, commit a fresh BENCH snapshot"
				}
				r.add(chk)
			}
		}

		// Stats-derived figure metrics: exact (a relative epsilon
		// absorbs decimal round-tripping through JSON, nothing more).
		for _, key := range sortedKeys(bb.Metrics) {
			if wallDerived(key) {
				continue
			}
			cv, ok := cb.Metrics[key]
			if !ok {
				r.add(GateCheck{Bench: name, Signal: "metrics." + key, Class: ClassExact, Base: bb.Metrics[key],
					OK: false, Note: "metric missing from candidate"})
				continue
			}
			bv := bb.Metrics[key]
			chk := GateCheck{Bench: name, Signal: "metrics." + key, Class: ClassExact, Base: bv, Cand: cv,
				OK: relEq(bv, cv, 1e-9)}
			if !chk.OK {
				chk.Note = "Stats-derived metric drift: emulation behavior changed"
			}
			r.add(chk)
		}

		// Cost: only a row the baseline measured itself.
		if bb.SharesCost() || bb.AllocsPerOp == 0 {
			continue
		}
		if cb.SharesCost() {
			r.add(GateCheck{Bench: name, Signal: "cost_shared", Class: ClassExact, Base: bb.AllocsPerOp, OK: false,
				Note: fmt.Sprintf("candidate row reuses %s's cost; the baseline row measured its own", cb.CostShared)})
			continue
		}
		growth := cb.AllocsPerOp/bb.AllocsPerOp - 1
		chk := GateCheck{Bench: name, Signal: "allocs_per_op", Class: ClassTolerance,
			Base: bb.AllocsPerOp, Cand: cb.AllocsPerOp, OK: growth <= allocTol}
		if !chk.OK {
			chk.Note = fmt.Sprintf("allocs/op grew %.2f%% (tolerance %.2f%%)", 100*growth, 100*allocTol)
		} else if growth < -allocTol {
			chk.Note = "allocs/op improved; consider refreshing the snapshot"
		}
		r.add(chk)
	}
	return r
}

func relEq(a, b, eps float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= eps*scale
}

func sortedKeys(m map[string]float64) []string {
	return slices.Sorted(maps.Keys(m))
}

// Format renders the gate report: failures and noted checks in detail
// (or every check when verbose), then a one-line summary.
func (r *GateResult) Format(verbose bool) string {
	var b strings.Builder
	for _, c := range r.Checks {
		if c.OK && !verbose && c.Note == "" {
			continue
		}
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%s  %-28s %-32s %-10s base=%v cand=%v", status, c.Bench, c.Signal, c.Class, c.Base, c.Cand)
		if c.Note != "" {
			fmt.Fprintf(&b, "  (%s)", c.Note)
		}
		b.WriteByte('\n')
	}
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "gate: %s — %d checks, %d failures\n", verdict, len(r.Checks), r.Failures)
	return b.String()
}
