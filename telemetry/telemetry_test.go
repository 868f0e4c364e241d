package telemetry_test

import (
	"context"
	"reflect"
	"testing"

	darco "darco"
	"darco/internal/workload"
	"darco/telemetry"
)

// runWindows executes one small workload with a windower at the given
// interval — Attach'ed when batch is 0, otherwise subscribed directly
// with that retire batch size — returning the emitted windows and the
// run result.
func runWindows(t *testing.T, interval uint64, batch int) ([]telemetry.Window, *darco.Result) {
	t.Helper()
	p, ok := workload.ByName("429.mcf")
	if !ok {
		t.Fatal("429.mcf missing from roster")
	}
	im, err := workload.CachedImage(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(im)
	if err != nil {
		t.Fatal(err)
	}
	var wins []telemetry.Window
	wd := telemetry.NewWindower(interval, func(w telemetry.Window) { wins = append(wins, w) })
	if batch == 0 {
		wd.Attach(sess)
	} else {
		sess.SubscribeRetires(wd.Sink, darco.WithRetireBatchSize(batch))
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wd.Flush()
	return wins, res
}

func TestWindowsCoverEveryRetiredInstruction(t *testing.T) {
	const interval = 10_000
	wins, res := runWindows(t, interval, 0)
	if len(wins) == 0 {
		t.Fatal("no windows emitted")
	}
	var total, syncs uint64
	for i, w := range wins {
		if w.Index != uint64(i) {
			t.Errorf("window %d has index %d", i, w.Index)
		}
		if w.StartInsn != total {
			t.Errorf("window %d starts at %d, want %d", i, w.StartInsn, total)
		}
		if i < len(wins)-1 && w.Insns != interval {
			t.Errorf("non-final window %d covers %d insns, want %d", i, w.Insns, interval)
		}
		if got := w.Simple + w.Complex + w.Memory + w.Branch; got != w.Insns {
			t.Errorf("window %d class counts sum to %d, Insns %d", i, got, w.Insns)
		}
		if w.Loads+w.Stores > w.Insns || w.Taken > w.Branch {
			t.Errorf("window %d has inconsistent slice counters: %+v", i, w)
		}
		total += w.Insns
		syncs += w.Syncs
	}
	if total != res.HostAppInsns {
		t.Errorf("windows cover %d insns, session retired %d", total, res.HostAppInsns)
	}
	if want := res.SyscallSyncs + res.Validations + res.PageTransfers + 1; syncs != want {
		t.Errorf("windows saw %d sync markers, session reports %d (+1 final)", syncs, want)
	}
}

// TestWindowsExactWhenBatchDividesInterval pins the bare-Sink contract:
// a direct subscription whose batch size divides the interval yields
// the same windows as Attach, whatever that batch size is — the session
// cuts deliveries at multiples of the batch size, so one always ends
// where a window does.
func TestWindowsExactWhenBatchDividesInterval(t *testing.T) {
	want, _ := runWindows(t, 8192, 0)
	for _, batch := range []int{64, 4096, 8192} {
		if got, _ := runWindows(t, 8192, batch); !reflect.DeepEqual(got, want) {
			t.Errorf("batch %d: windows differ from the attached windower's:\n%v\n%v", batch, got, want)
		}
	}
}

// TestWindowsCloseOnDeliveryWhenBatchDoesNotDivide documents the one
// inexact case: with a batch size that does not divide the interval a
// window closes at the end of the delivery that reaches the interval,
// so it may run over — by less than one batch — and nothing is lost.
func TestWindowsCloseOnDeliveryWhenBatchDoesNotDivide(t *testing.T) {
	const interval, batch = 10_000, 4096
	wins, res := runWindows(t, interval, batch)
	var total uint64
	for i, w := range wins {
		if w.StartInsn != total {
			t.Errorf("window %d starts at %d, want %d", i, w.StartInsn, total)
		}
		if i < len(wins)-1 && (w.Insns < interval || w.Insns >= interval+batch) {
			t.Errorf("non-final window %d covers %d insns, want [%d, %d)", i, w.Insns, interval, interval+batch)
		}
		total += w.Insns
	}
	if total != res.HostAppInsns {
		t.Errorf("windows cover %d insns, session retired %d", total, res.HostAppInsns)
	}
}

func TestFlushEmitsTailAndOnlyOnce(t *testing.T) {
	var wins []telemetry.Window
	wd := telemetry.NewWindower(100, func(w telemetry.Window) { wins = append(wins, w) })
	mix := darco.RetireMix{Insns: 50}
	mix.Class[darco.RetireSimple] = 50
	for i := 0; i < 3; i++ {
		wd.Sink(darco.RetireBatch{Mix: mix})
	}
	if len(wins) != 1 {
		t.Fatalf("%d windows before flush, want 1", len(wins))
	}
	wd.Flush()
	wd.Flush() // idempotent: nothing pending
	if len(wins) != 2 {
		t.Fatalf("%d windows after flush, want 2", len(wins))
	}
	if wins[1].Insns != 50 || wins[1].StartInsn != 100 || wins[1].Index != 1 {
		t.Errorf("tail window wrong: %+v", wins[1])
	}
	if wd.Insns() != 150 {
		t.Errorf("Insns() = %d, want 150", wd.Insns())
	}
}

func TestSyncOnlyTailWindow(t *testing.T) {
	var wins []telemetry.Window
	wd := telemetry.NewWindower(10, func(w telemetry.Window) { wins = append(wins, w) })
	sync := darco.SyncEvent{Kind: darco.SyncFinal}
	wd.Sink(darco.RetireBatch{Sync: &sync})
	wd.Flush()
	if len(wins) != 1 || wins[0].Syncs != 1 || wins[0].Insns != 0 {
		t.Errorf("sync-only tail not emitted correctly: %v", wins)
	}
}

func TestDefaultInterval(t *testing.T) {
	wd := telemetry.NewWindower(0, nil)
	if wd.Interval() != telemetry.DefaultInterval {
		t.Errorf("interval %d, want default %d", wd.Interval(), telemetry.DefaultInterval)
	}
}

func TestWindowAdd(t *testing.T) {
	a := telemetry.Window{Insns: 5, Simple: 3, Memory: 2, Loads: 1, Syncs: 1}
	b := telemetry.Window{Insns: 7, Simple: 4, Branch: 3, Taken: 2}
	a.Add(&b)
	want := telemetry.Window{Insns: 12, Simple: 7, Memory: 2, Branch: 3, Loads: 1, Taken: 2, Syncs: 1}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
}
