package darco

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"darco/internal/workload"
)

// goroutinesReturnTo fails the test unless the goroutine count comes back
// to base. A goroutine the session waited for may still be a few
// instructions from its exit when the count is first read, so the check
// yields a bounded number of times; one that was leaked never goes away.
func goroutinesReturnTo(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines %s, %d before the session", n, after, base)
	}
}

// TestShadowCatchUpEndsWithEveryStep pins the lifetime of the
// controller's second goroutine from the session's side: whatever way a
// Step ends — completion, a cancel that arrives from inside a tick (a
// target has just been published), a terminal error — no goroutine is
// left, which is why a Session has no Close; and between Steps the
// authoritative component is quiescent, so the lockstep validation the
// debug toolchain runs there may read and advance it (under -race, an
// authoritative run still in flight would be reported here).
func TestShadowCatchUpEndsWithEveryStep(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := workload.CachedImage(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), im); err != nil {
		t.Fatal(err)
	}
	goroutinesReturnTo(t, base, "after Session.Run")

	var cancel context.CancelFunc
	eng, err = NewEngine(WithObserver(ObserverFuncs{Progress: func(Progress) { cancel() }}))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := eng.NewSession(im)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for ; !ses.Done(); steps++ {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		// Three intervals: the cancel from the first tick wins.
		if _, err := ses.Step(ctx, 3*DefaultCheckInterval); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		cancel()
		goroutinesReturnTo(t, base, "after a cancelled Step")
		if err := ses.ctl.StepValidate(); err != nil {
			t.Fatalf("validation between Steps, after %d: %v", steps, err)
		}
	}
	if steps < 3 {
		t.Fatalf("done after %d Steps: the cancels did not land on ticks", steps)
	}

	eng, err = NewEngine(WithMaxGuestInsns(2 * DefaultCheckInterval))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), im); err == nil {
		t.Fatal("instruction limit not enforced")
	}
	goroutinesReturnTo(t, base, "after a terminal error")
}
