package perf

import (
	"context"
	"errors"
	"strings"
	"testing"

	"darco/obs"
)

// synthetic builds a closure that replays a fixed sequence of wall
// times (cycling), recording the order it was called in.
func synthetic(ns []float64, calls *[]string, tag string) Closure {
	i := 0
	return func(ctx context.Context) (Sample, error) {
		v := ns[i%len(ns)]
		i++
		if calls != nil {
			*calls = append(*calls, tag)
		}
		return Sample{Ns: v}, nil
	}
}

func TestRunABClearLoss(t *testing.T) {
	// Candidate consistently 50% slower: must be called out.
	res, err := RunAB(context.Background(),
		synthetic([]float64{100}, nil, "b"),
		synthetic([]float64{150}, nil, "c"),
		ABOptions{Reps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictSlower {
		t.Fatalf("verdict = %v, want slower\n%s", res.Verdict, res.Format())
	}
	if res.BaseWins != 10 || res.CandWins != 0 {
		t.Fatalf("wins = %d/%d, want 0/10", res.CandWins, res.BaseWins)
	}
	if res.Ratio != 1.5 {
		t.Fatalf("ratio = %v, want 1.5", res.Ratio)
	}
	if !strings.Contains(res.Format(), "verdict: slower") {
		t.Fatalf("Format missing grep-stable verdict line:\n%s", res.Format())
	}
}

func TestRunABClearWin(t *testing.T) {
	res, err := RunAB(context.Background(),
		synthetic([]float64{100}, nil, "b"),
		synthetic([]float64{80}, nil, "c"),
		ABOptions{Reps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictFaster {
		t.Fatalf("verdict = %v, want faster\n%s", res.Verdict, res.Format())
	}
}

func TestRunABPureNoise(t *testing.T) {
	// Arms draw from the same jitter distribution, phase-shifted so the
	// candidate wins half the repetitions and loses the other half: the
	// sign test must read that as noise.
	res, err := RunAB(context.Background(),
		synthetic([]float64{100, 104}, nil, "b"),
		synthetic([]float64{104, 100}, nil, "c"),
		ABOptions{Reps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictInconclusive {
		t.Fatalf("verdict = %v, want inconclusive\n%s", res.Verdict, res.Format())
	}
	if res.PValue < 0.99 {
		t.Fatalf("p = %v, want ~1 for balanced wins", res.PValue)
	}
}

func TestRunABSmallEffectIsInconclusive(t *testing.T) {
	// A perfectly consistent 1% slowdown is significant but below the
	// 2% default effect floor: still inconclusive.
	res, err := RunAB(context.Background(),
		synthetic([]float64{1000}, nil, "b"),
		synthetic([]float64{1010}, nil, "c"),
		ABOptions{Reps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 0.05 {
		t.Fatalf("p = %v, expected significance", res.PValue)
	}
	if res.Verdict != VerdictInconclusive {
		t.Fatalf("verdict = %v, want inconclusive (effect below floor)", res.Verdict)
	}
}

func TestRunABInterleavesAndAlternates(t *testing.T) {
	var calls []string
	_, err := RunAB(context.Background(),
		synthetic([]float64{100}, &calls, "b"),
		synthetic([]float64{100}, &calls, "c"),
		ABOptions{Warmup: 1, Reps: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Warmup pair (i=0) then measured pairs i=0..3, alternating
	// within-pair order each i.
	want := "bc" + "bc" + "cb" + "bc" + "cb"
	if got := strings.Join(calls, ""); got != want {
		t.Fatalf("call order = %q, want %q", got, want)
	}
}

func TestRunABErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := RunAB(context.Background(),
		synthetic([]float64{100}, nil, "b"),
		func(ctx context.Context) (Sample, error) { return Sample{}, boom },
		ABOptions{Reps: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunABContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAB(ctx,
		synthetic([]float64{100}, nil, "b"),
		synthetic([]float64{100}, nil, "c"),
		ABOptions{Reps: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunABCounterDivergence(t *testing.T) {
	withCtrs := func(ns float64, cs obs.EngineCountersSnapshot) Closure {
		return func(ctx context.Context) (Sample, error) {
			c := cs
			return Sample{Ns: ns, Counters: &c}, nil
		}
	}
	same := obs.EngineCountersSnapshot{DecodeHits: 10, BlockHits: 5}
	res, err := RunAB(context.Background(),
		withCtrs(100, same), withCtrs(100, same), ABOptions{Reps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.CountersDiverge {
		t.Fatal("identical counters reported as diverging")
	}
	diff := same
	diff.DecodeHits = 11
	res, err = RunAB(context.Background(),
		withCtrs(100, same), withCtrs(100, diff), ABOptions{Reps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CountersDiverge {
		t.Fatal("deterministic counter drift not reported")
	}
	if !strings.Contains(res.Format(), "counters diverge") {
		t.Fatalf("Format missing divergence note:\n%s", res.Format())
	}
}
