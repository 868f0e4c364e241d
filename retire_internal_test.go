package darco

import (
	"reflect"
	"testing"

	"darco/internal/timing"
	"darco/internal/workload"
)

// TestRetireHookZeroCostWithoutSubscriber pins the acceptance property
// behind BenchmarkTableSpeedFunctional: a session with no retire
// subscriber must leave the VM with no histogram attached and its
// retire slot exactly what the timing configuration dictates — nil on
// the functional stack, the timing consumer alone with a simulator
// attached — so the retirement fast path (one branch per instruction,
// pinned in internal/hostvm) never counts or materializes anything. A
// subscriber that did not ask for events attaches the histogram and
// leaves the retire slot alone.
func TestRetireHookZeroCostWithoutSubscriber(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := workload.CachedImage(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ses, err := eng.NewSession(im)
	if err != nil {
		t.Fatal(err)
	}
	vm := ses.ctl.CoD.VM
	if vm.Retire != nil || vm.Mix != nil {
		t.Error("functional session has a retire consumer without a subscriber")
	}
	if ses.ctl.Cfg.OnExcursion != nil || ses.ctl.Cfg.OnSync != nil {
		t.Error("controller hooks installed without an observer or subscriber")
	}

	// Subscribing attaches the histogram and the controller hooks, the
	// event feed only on request; unsubscribing restores the fast path.
	cancel := ses.SubscribeRetires(func(RetireBatch) {})
	if vm.Mix == nil || ses.ctl.Cfg.OnExcursion == nil || ses.ctl.Cfg.OnSync == nil {
		t.Error("subscription did not install the retire hooks")
	}
	if vm.Retire != nil {
		t.Error("a subscription without WithRetireEvents installed the per-instruction event feed")
	}
	cancelEvents := ses.SubscribeRetires(func(RetireBatch) {}, WithRetireEvents())
	if vm.Retire == nil {
		t.Error("WithRetireEvents did not install the per-instruction event feed")
	}
	cancelEvents()
	if vm.Retire != nil || vm.Mix == nil {
		t.Error("dropping the events subscriber did not leave the histogram alone on the VM")
	}
	cancel()
	if vm.Retire != nil || vm.Mix != nil || ses.ctl.Cfg.OnExcursion != nil || ses.ctl.Cfg.OnSync != nil {
		t.Error("unsubscribe did not restore the no-consumer fast path")
	}

	// With a timing simulator the retire slot is the consumer itself,
	// not a tee wrapper (TeeRetire returns a single live sink
	// unwrapped); nothing observable distinguishes it from the
	// pre-stream wiring.
	tEng, err := NewEngine(WithTiming(timing.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	tSes, err := tEng.NewSession(im)
	if err != nil {
		t.Fatal(err)
	}
	isTimingFeed := func() bool {
		return reflect.ValueOf(tSes.ctl.CoD.VM.Retire).Pointer() == reflect.ValueOf(tSes.core.Consume).Pointer()
	}
	if !isTimingFeed() || tSes.ctl.CoD.VM.Mix != nil {
		t.Error("timing session's retire slot is not the timing consumer alone")
	}
	if tSes.ctl.Cfg.OnExcursion != nil {
		t.Error("timing-only session installed the stream flush hook")
	}
	// A mix-only subscriber leaves the retire slot the timing feed.
	cancel = tSes.SubscribeRetires(func(RetireBatch) {})
	if !isTimingFeed() || tSes.ctl.CoD.VM.Mix == nil {
		t.Error("a subscription without events changed the timing session's retire slot")
	}
	cancel()
	if !isTimingFeed() || tSes.ctl.CoD.VM.Mix != nil {
		t.Error("unsubscribe did not restore the timing-only wiring")
	}
}
