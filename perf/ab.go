package perf

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Sample is one run of the repository benchmark: the operation counts
// and metric values of its one-line JSON result.
type Sample struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

// Closure runs the benchmark once.
type Closure func(ctx context.Context) (Sample, error)

// RunAB runs pairs alternated baseline/candidate pairs, the within-pair
// order flipping every pair (B,C / C,B / ...), so slow machine drift —
// thermal throttling, a neighbour VM waking up — falls on both sides
// instead of masquerading as a regression. Element i of each returned
// slice is from pair i. The first failing run ends the comparison.
func RunAB(ctx context.Context, baseline, candidate Closure, pairs int) (base, cand []Sample, err error) {
	type arm struct {
		name string
		run  Closure
		out  *[]Sample
	}
	arms := [2]arm{{"baseline", baseline, &base}, {"candidate", candidate, &cand}}
	for i := range pairs {
		for j := range arms {
			a := arms[(i+j)%2]
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			s, err := a.run(ctx)
			if err != nil {
				return nil, nil, fmt.Errorf("perf: %s run %d: %w", a.name, i+1, err)
			}
			*a.out = append(*a.out, s)
		}
	}
	return base, cand, nil
}

// Metric is one metric BENCHMARK.json declares.
type Metric struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen; 0 marks a per-layer metric, which has none.
	Bound float64 `json:"bound"`
}

// Verdict is the comparison's conclusion about one metric.
type Verdict string

// minPairs is the fewest pairs on which a side can be called better or
// worse: below ten, a short sweep of noise meets the 9/10 share.
const minPairs = 10

const (
	// VerdictBetter: over at least minPairs pairs, the candidate won at
	// least 9/10 of them and its median is better than the baseline's
	// by more than the baseline's q3−q1. VerdictWorse is the same for
	// the baseline.
	VerdictBetter Verdict = "better"
	VerdictWorse  Verdict = "worse"
	// The end-to-end verdicts when neither side won: the candidate's
	// median is worse by at most the metric's bound, or by more; or the
	// baseline's own q3−q1 is wider than the bound, so neither can be
	// told, unless every candidate run beat every baseline run.
	VerdictWithinBound Verdict = "within bound"
	VerdictBeyondBound Verdict = "worse beyond bound"
	VerdictUnresolved  Verdict = "unresolved (parent spread > bound)"
	// The per-layer verdicts when neither side won: every run on both
	// sides read one value, or not.
	VerdictIdentical Verdict = "identical"
	VerdictNoWinner  Verdict = "unresolved"
	// VerdictMissing: some run on either side did not report the metric.
	VerdictMissing Verdict = "missing from a run"
)

// MetricResult is one metric's row of the comparison.
type MetricResult struct {
	Metric
	Base, Cand [3]float64 // q1, median, q3 over each side's runs
	Won, Lost  int        // pairs the candidate won and lost; ties count for neither
	Verdict    Verdict
}

// ABResult is the reduced comparison.
type ABResult struct {
	Pairs   int
	Metrics []MetricResult // sorted by name
	// Moved names the metrics that held one value in every baseline run
	// but read another in some candidate run.
	Moved                     []string
	BaseAttempted, BaseFailed int
	CandAttempted, CandFailed int
}

// FailedShareHigher reports whether a larger share of the candidate's
// operations failed than of the baseline's.
func (r *ABResult) FailedShareHigher() bool {
	return share(float64(r.CandFailed), float64(r.CandAttempted)) >
		share(float64(r.BaseFailed), float64(r.BaseAttempted))
}

// Compare reduces the runs of RunAB to one row and verdict per declared
// metric the runs report.
func Compare(base, cand []Sample, metrics []Metric) *ABResult {
	r := &ABResult{Pairs: len(base)}
	for i := range base {
		r.BaseAttempted += base[i].Attempted
		r.BaseFailed += base[i].Failed
		r.CandAttempted += cand[i].Attempted
		r.CandFailed += cand[i].Failed
	}
	for _, m := range metrics {
		var bv, cv []float64
		for i := range base {
			if v, ok := base[i].Metrics[m.Name]; ok {
				bv = append(bv, v)
			}
			if v, ok := cand[i].Metrics[m.Name]; ok {
				cv = append(cv, v)
			}
		}
		if len(bv) == 0 && len(cv) == 0 {
			continue // a metric of the other pass
		}
		mr := MetricResult{Metric: m}
		if len(bv) != len(base) || len(cv) != len(cand) {
			mr.Verdict = VerdictMissing
			r.Metrics = append(r.Metrics, mr)
			continue
		}
		mr.Base, mr.Cand = quartiles(bv), quartiles(cv)
		for i := range bv {
			switch d := mr.gain(bv[i], cv[i]); {
			case d > 0:
				mr.Won++
			case d < 0:
				mr.Lost++
			}
		}
		mr.Verdict = mr.decide(bv, cv)
		if holds(bv, bv[0]) && !holds(cv, bv[0]) {
			r.Moved = append(r.Moved, m.Name)
		}
		r.Metrics = append(r.Metrics, mr)
	}
	slices.SortFunc(r.Metrics, func(a, b MetricResult) int { return strings.Compare(a.Name, b.Name) })
	slices.Sort(r.Moved)
	return r
}

// gain is how much better cand reads than base: positive when the
// candidate is better in the metric's direction.
func (m Metric) gain(base, cand float64) float64 {
	if m.Better == "lower" {
		return base - cand
	}
	return cand - base
}

// decide applies the verdict rule to the paired values.
func (m *MetricResult) decide(bv, cv []float64) Verdict {
	gain := m.gain(m.Base[1], m.Cand[1])
	spread := m.Base[2] - m.Base[0]
	switch n := len(bv); {
	case n >= minPairs && 10*m.Won >= 9*n && gain > spread:
		return VerdictBetter
	case n >= minPairs && 10*m.Lost >= 9*n && -gain > spread:
		return VerdictWorse
	case m.Bound == 0:
		if holds(bv, bv[0]) && holds(cv, bv[0]) {
			return VerdictIdentical
		}
		return VerdictNoWinner
	}
	allBeat := true
	for _, c := range cv {
		for _, b := range bv {
			allBeat = allBeat && m.gain(b, c) > 0
		}
	}
	switch {
	case share(spread, m.Base[1]) > m.Bound && !allBeat:
		return VerdictUnresolved
	case share(-gain, m.Base[1]) <= m.Bound:
		return VerdictWithinBound
	default:
		return VerdictBeyondBound
	}
}

// holds reports whether every value of xs is v.
func holds(xs []float64, v float64) bool {
	return !slices.ContainsFunc(xs, func(x float64) bool { return x != v })
}

// share is x as a share of |base|; a nonzero x over a zero base is
// infinite.
func share(x, base float64) float64 {
	if x == 0 {
		return 0
	}
	return x / math.Abs(base)
}

// Format renders the run record's tables: operations attempted and
// failed per side; per metric the quartiles of each side, the change of
// the median and the pairs the candidate won; and the metrics that
// moved off a value every baseline run held.
func (r *ABResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempted/failed: baseline %d/%d, candidate %d/%d\n\n",
		r.BaseAttempted, r.BaseFailed, r.CandAttempted, r.CandFailed)
	b.WriteString("| metric | baseline q1 / median / q3 | candidate q1 / median / q3 | Δ median | pairs won |\n")
	b.WriteString("|---|---|---|---|---|\n")
	q := func(x [3]float64) string { return fmt.Sprintf("%.4g / %.4g / %.4g", x[0], x[1], x[2]) }
	for _, m := range r.Metrics {
		if m.Verdict == VerdictMissing {
			fmt.Fprintf(&b, "| %s | %s | | | |\n", m.Name, m.Verdict)
			continue
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %+.1f %% | %d/%d |\n",
			m.Name, q(m.Base), q(m.Cand), 100*share(m.Cand[1]-m.Base[1], m.Base[1]), m.Won, r.Pairs)
	}
	b.WriteString("\nHeld one value in every baseline run and moved in a candidate run: ")
	if len(r.Moved) == 0 {
		b.WriteString("none.\n")
	} else {
		fmt.Fprintf(&b, "%s.\n", strings.Join(r.Moved, ", "))
	}
	return b.String()
}

// FormatVerdicts renders one grep-stable line per metric,
// "verdict <metric>: <verdict> (...)", then one on the failed share.
func (r *ABResult) FormatVerdicts() string {
	var b strings.Builder
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, "verdict %s: %s", m.Name, m.Verdict)
		if m.Verdict != VerdictMissing {
			fmt.Fprintf(&b, " (Δ median %+.1f %%, %d/%d pairs won, %d lost, parent q3−q1 %.1f %%",
				100*share(m.Cand[1]-m.Base[1], m.Base[1]), m.Won, r.Pairs, m.Lost,
				100*share(m.Base[2]-m.Base[0], m.Base[1]))
			if m.Bound > 0 {
				fmt.Fprintf(&b, ", bound %.0f %%", 100*m.Bound)
			}
			b.WriteByte(')')
		}
		b.WriteByte('\n')
	}
	failed := "not higher"
	if r.FailedShareHigher() {
		failed = "higher on candidate"
	}
	fmt.Fprintf(&b, "verdict failed share: %s (baseline %d/%d, candidate %d/%d)\n",
		failed, r.BaseFailed, r.BaseAttempted, r.CandFailed, r.CandAttempted)
	return b.String()
}
