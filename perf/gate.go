package perf

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"darco/obs"
)

// GatePolicy tunes the regression gate. The zero value picks the
// defaults darco-perf and CI use.
type GatePolicy struct {
	// WallRatio is the advisory candidate/baseline wall-time ratio
	// above which the gate warns (default 1.5). Wall time is never a
	// hard failure unless StrictWall is set: across machines raw ns/op
	// is drift, not evidence — that is the paired A/B harness's job.
	WallRatio float64
	// AllocTol is the fractional allocs/op increase tolerated before a
	// hard failure (default 0.01). Allocation counts are near-exact
	// but MemStats deltas can see a handful of background-goroutine
	// allocations.
	AllocTol float64
	// StrictWall promotes wall-ratio breaches to hard failures (for
	// same-machine gating, where wall actually is comparable).
	StrictWall bool
}

func (p GatePolicy) withDefaults() GatePolicy {
	if p.WallRatio <= 1 {
		p.WallRatio = 1.5
	}
	if p.AllocTol <= 0 {
		p.AllocTol = 0.01
	}
	return p
}

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
	// (allocs/op, bytes/op); they fail only on a regression beyond the
	// policy tolerance.
	ClassTolerance CheckClass = "tolerance"
	// ClassAdvisory signals are machine-dependent (wall time); breaches
	// are reported, never fatal unless StrictWall.
	ClassAdvisory CheckClass = "advisory"
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
	Checks     []GateCheck
	Failures   int // hard failures (exact/tolerance breaches, missing benches)
	Advisories int // advisory breaches (reported, non-fatal)
}

// Pass reports whether the candidate clears the gate.
func (r *GateResult) Pass() bool { return r.Failures == 0 }

func (r *GateResult) add(c GateCheck) {
	r.Checks = append(r.Checks, c)
	if !c.OK {
		if c.Class == ClassAdvisory {
			r.Advisories++
		} else {
			r.Failures++
		}
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
// signal. Hard failures: a baseline bench missing from the candidate,
// any deterministic-counter or figure-metric drift (exact), and
// allocs/op growth beyond AllocTol. Advisory: wall-time ratio beyond
// WallRatio, bytes/op growth. Benches only the candidate has (new
// coverage) are ignored; rows marked CostShared skip the cost signals
// entirely so one measured campaign is gated once, not five times.
// Both snapshots should be at the same workload scale — the gate flags
// a scale mismatch as a failure up front.
func Gate(base, cand *Snapshot, pol GatePolicy) *GateResult {
	pol = pol.withDefaults()
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
		if bb.Counters != nil && cb.Counters != nil {
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

		// Cost signals: skip rows that share another row's measurement.
		if bb.SharesCost() || cb.SharesCost() {
			continue
		}
		if bb.AllocsPerOp > 0 {
			growth := cb.AllocsPerOp/bb.AllocsPerOp - 1
			chk := GateCheck{Bench: name, Signal: "allocs_per_op", Class: ClassTolerance,
				Base: bb.AllocsPerOp, Cand: cb.AllocsPerOp, OK: growth <= pol.AllocTol}
			if !chk.OK {
				chk.Note = fmt.Sprintf("allocs/op grew %.2f%% (tolerance %.2f%%)", 100*growth, 100*pol.AllocTol)
			} else if growth < -pol.AllocTol {
				chk.Note = "allocs/op improved; consider refreshing the snapshot"
			}
			r.add(chk)
		}
		if bb.BytesPerOp > 0 {
			growth := cb.BytesPerOp/bb.BytesPerOp - 1
			chk := GateCheck{Bench: name, Signal: "bytes_per_op", Class: ClassAdvisory,
				Base: bb.BytesPerOp, Cand: cb.BytesPerOp, OK: growth <= pol.AllocTol}
			if !chk.OK {
				chk.Note = fmt.Sprintf("bytes/op grew %.2f%%", 100*growth)
			}
			r.add(chk)
		}
		if bb.NsPerOp > 0 {
			ratio := cb.NsPerOp / bb.NsPerOp
			class := ClassAdvisory
			if pol.StrictWall {
				class = ClassTolerance
			}
			chk := GateCheck{Bench: name, Signal: "ns_per_op", Class: class,
				Base: bb.NsPerOp, Cand: cb.NsPerOp, OK: ratio <= pol.WallRatio}
			if !chk.OK {
				chk.Note = fmt.Sprintf("wall %.2fx baseline (threshold %.2fx); cross-machine wall is advisory — confirm with darco-perf ab", ratio, pol.WallRatio)
			}
			r.add(chk)
		}
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

// Format renders the gate report: failures and advisories in detail
// (or every check when verbose), then a one-line summary.
func (r *GateResult) Format(verbose bool) string {
	var b strings.Builder
	for _, c := range r.Checks {
		if c.OK && !verbose && c.Note == "" {
			continue
		}
		status := "ok  "
		if !c.OK {
			if c.Class == ClassAdvisory {
				status = "warn"
			} else {
				status = "FAIL"
			}
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
	fmt.Fprintf(&b, "gate: %s — %d checks, %d failures, %d advisories\n",
		verdict, len(r.Checks), r.Failures, r.Advisories)
	return b.String()
}
