package perf

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// wallS is a lower-is-better end-to-end metric with the benchmark's
// usual 25 % bound.
var wallS = []Metric{{Name: "s", Better: "lower", Bound: 0.25}}

// synthetic builds a closure that replays a fixed sequence of values of
// metric "s" (cycling), recording the order it was called in.
func synthetic(vals []float64, calls *[]string, tag string) Closure {
	i := 0
	return func(ctx context.Context) (Sample, error) {
		v := vals[i%len(vals)]
		i++
		if calls != nil {
			*calls = append(*calls, tag)
		}
		return Sample{Attempted: 1, Metrics: map[string]float64{"s": v}}, nil
	}
}

// compareAB runs ten pairs of the two closures and reduces them.
func compareAB(t *testing.T, base, cand Closure, metrics []Metric) *ABResult {
	t.Helper()
	bs, cs, err := RunAB(context.Background(), base, cand, 10)
	if err != nil {
		t.Fatal(err)
	}
	return Compare(bs, cs, metrics)
}

func TestRunABClearLoss(t *testing.T) {
	// Candidate consistently 50% slower: must be called out.
	r := compareAB(t, synthetic([]float64{100}, nil, "b"), synthetic([]float64{150}, nil, "c"), wallS)
	if m := r.Metrics[0]; m.Verdict != VerdictWorse || m.Lost != 10 || m.Won != 0 {
		t.Fatalf("verdict %v, won %d lost %d; want worse, 0/10\n%s", m.Verdict, m.Won, m.Lost, r.FormatVerdicts())
	}
	if !strings.Contains(r.FormatVerdicts(), "verdict s: worse (") {
		t.Fatalf("FormatVerdicts missing grep-stable verdict line:\n%s", r.FormatVerdicts())
	}
}

func TestRunABClearWin(t *testing.T) {
	r := compareAB(t, synthetic([]float64{100}, nil, "b"), synthetic([]float64{80}, nil, "c"), wallS)
	if v := r.Metrics[0].Verdict; v != VerdictBetter {
		t.Fatalf("verdict = %v, want better\n%s", v, r.FormatVerdicts())
	}
}

func TestRunABPureNoise(t *testing.T) {
	// Arms draw from the same jitter, phase-shifted so the candidate wins
	// half the pairs and loses the other half.
	r := compareAB(t, synthetic([]float64{100, 104}, nil, "b"), synthetic([]float64{104, 100}, nil, "c"), wallS)
	if m := r.Metrics[0]; m.Verdict != VerdictWithinBound || m.Won != 5 || m.Lost != 5 {
		t.Fatalf("verdict %v, won %d lost %d; want within bound, 5/5\n%s", m.Verdict, m.Won, m.Lost, r.FormatVerdicts())
	}
}

func TestRunABSmallEffectIsInconclusive(t *testing.T) {
	// The candidate loses every pair by 1 %, but the medians differ by
	// less than the baseline's own q3−q1: not called worse.
	r := compareAB(t, synthetic([]float64{1000, 1040}, nil, "b"), synthetic([]float64{1010, 1050}, nil, "c"), wallS)
	if m := r.Metrics[0]; m.Lost != 10 || m.Verdict != VerdictWithinBound {
		t.Fatalf("verdict %v, lost %d; want within bound, 10 lost\n%s", m.Verdict, m.Lost, r.FormatVerdicts())
	}
}

func TestRunABInterleavesAndAlternates(t *testing.T) {
	var calls []string
	_, _, err := RunAB(context.Background(),
		synthetic([]float64{100}, &calls, "b"),
		synthetic([]float64{100}, &calls, "c"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(calls, ""), "bc"+"cb"+"bc"+"cb"; got != want {
		t.Fatalf("call order = %q, want %q", got, want)
	}
}

func TestRunABErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, _, err := RunAB(context.Background(),
		synthetic([]float64{100}, nil, "b"),
		func(ctx context.Context) (Sample, error) { return Sample{}, boom }, 2)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunABContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RunAB(ctx, synthetic([]float64{100}, nil, "b"), synthetic([]float64{100}, nil, "c"), 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunABCounterDivergence(t *testing.T) {
	// An engine counter of the traced pass: one value in every baseline
	// run. The same in the candidate reads identical; one candidate run
	// off it is named.
	dispatches := []Metric{{Name: "tol.dispatches", Better: "lower"}}
	counter := func(vals ...float64) Closure {
		i := 0
		return func(ctx context.Context) (Sample, error) {
			i++
			return Sample{Metrics: map[string]float64{"tol.dispatches": vals[(i-1)%len(vals)]}}, nil
		}
	}
	r := compareAB(t, counter(7), counter(7), dispatches)
	if len(r.Moved) != 0 || r.Metrics[0].Verdict != VerdictIdentical {
		t.Fatalf("identical counters: moved %v, verdict %v", r.Moved, r.Metrics[0].Verdict)
	}
	r = compareAB(t, counter(7), counter(7, 7, 7, 8), dispatches)
	if !slices.Equal(r.Moved, []string{"tol.dispatches"}) {
		t.Fatalf("moved = %v, want [tol.dispatches]", r.Moved)
	}
	if !strings.Contains(r.Format(), "moved in a candidate run: tol.dispatches.") {
		t.Fatalf("Format does not name the moved counter:\n%s", r.Format())
	}
}

// samples builds one run per value of metric "m", each attempting ten
// operations of which failed fail; a NaN is a run that did not report
// the metric.
func samples(vals []float64, failed int) []Sample {
	out := make([]Sample, len(vals))
	for i, v := range vals {
		out[i] = Sample{Attempted: 10, Failed: failed, Metrics: map[string]float64{}}
		if !math.IsNaN(v) {
			out[i].Metrics["m"] = v
		}
	}
	return out
}

func shift(xs []float64, d float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + d
	}
	return out
}

func repeat(vals ...float64) []float64 {
	var out []float64
	for len(out) < 10 {
		out = append(out, vals...)
	}
	return out[:10]
}

func TestCompareVerdicts(t *testing.T) {
	lower := Metric{Name: "m", Better: "lower", Bound: 0.25}
	higher := Metric{Name: "m", Better: "higher", Bound: 0.25}
	layer := Metric{Name: "m", Better: "lower"}
	// q1 99, median 100, q3 101: a 2 % spread.
	base := []float64{98, 99, 100, 101, 102, 98, 99, 100, 101, 102}
	cases := []struct {
		name           string
		metric         Metric
		bv, cv         []float64
		candFailed     int
		want           Verdict
		won, lost      int
		moved, failedH bool
	}{
		{name: "better", metric: lower, bv: base, cv: shift(base, -10), want: VerdictBetter, won: 10},
		{name: "worse", metric: lower, bv: base, cv: shift(base, 10), want: VerdictWorse, lost: 10},
		// The same values rotated by one pair: 2 pairs won, 8 lost.
		{name: "within bound", metric: lower, bv: base, cv: append(slices.Clone(base[1:]), base[0]),
			want: VerdictWithinBound, won: 2, lost: 8},
		// 8/10 lost is short of 9/10, but the median is 40 % worse.
		{name: "worse beyond bound", metric: lower, bv: base, cv: append([]float64{90, 90}, repeat(140)[:8]...),
			want: VerdictBeyondBound, won: 2, lost: 8},
		// The baseline's own q3−q1 is 100 % of its median.
		{name: "unresolved", metric: lower, bv: repeat(50, 150), cv: repeat(150, 50),
			want: VerdictUnresolved, won: 5, lost: 5},
		{name: "every candidate run beats every baseline run", metric: lower, bv: repeat(50, 150), cv: repeat(40),
			want: VerdictWithinBound, won: 10},
		// Nine ties and one win: the ties count for neither side.
		{name: "ties", metric: higher, bv: repeat(10), cv: append(repeat(10)[:9], 11),
			want: VerdictWithinBound, won: 1, moved: true},
		{name: "moved constant row", metric: layer, bv: repeat(7), cv: append(repeat(7)[:9], 8),
			want: VerdictNoWinner, lost: 1, moved: true},
		{name: "identical", metric: layer, bv: repeat(7), cv: repeat(7), want: VerdictIdentical},
		// A clean sweep of three pairs is not ten.
		{name: "fewer than ten pairs", metric: lower, bv: base[:3], cv: shift(base[:3], -10),
			want: VerdictWithinBound, won: 3},
		{name: "missing", metric: lower, bv: base, cv: append(slices.Clone(base[:9]), math.NaN()), want: VerdictMissing},
		{name: "higher failed share", metric: lower, bv: base, cv: base, candFailed: 1,
			want: VerdictWithinBound, failedH: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := Compare(samples(c.bv, 0), samples(c.cv, c.candFailed), []Metric{c.metric})
			m := r.Metrics[0]
			if m.Verdict != c.want {
				t.Errorf("verdict = %q, want %q", m.Verdict, c.want)
			}
			if m.Verdict != VerdictMissing && (m.Won != c.won || m.Lost != c.lost) {
				t.Errorf("won %d lost %d, want %d/%d", m.Won, m.Lost, c.won, c.lost)
			}
			if got := len(r.Moved) == 1; got != c.moved {
				t.Errorf("moved = %v, want moved %v", r.Moved, c.moved)
			}
			if r.FailedShareHigher() != c.failedH {
				t.Errorf("FailedShareHigher = %v, want %v", r.FailedShareHigher(), c.failedH)
			}
			verdicts := r.FormatVerdicts()
			if !strings.Contains(verdicts, "verdict m: "+string(c.want)) {
				t.Errorf("no verdict line for m:\n%s", verdicts)
			}
			failed := "verdict failed share: not higher"
			if c.failedH {
				failed = "verdict failed share: higher on candidate (baseline 0/100, candidate 10/100)"
			}
			if !strings.Contains(verdicts, failed) {
				t.Errorf("want %q in:\n%s", failed, verdicts)
			}
		})
	}
}
