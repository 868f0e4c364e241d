package darco_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	darco "darco"
	"darco/internal/guest"
	"darco/internal/power"
	"darco/internal/timing"
	"darco/internal/tol"
	"darco/internal/workload"
)

func TestOptionApplication(t *testing.T) {
	tc := tol.DefaultConfig()
	tc.BBThreshold = 3
	tc.SBThreshold = 77
	tm := timing.DefaultConfig()
	tm.IssueWidth = 4
	eng, err := darco.NewEngine(
		darco.WithTOL(tc),
		darco.WithTiming(tm),
		darco.WithPower(power.DefaultEnergies(), 1500),
		darco.WithValidation(7),
		darco.WithMaxGuestInsns(123456),
		darco.WithCheckInterval(999),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := eng.Config()
	if cfg.TOL.BBThreshold != 3 || cfg.TOL.SBThreshold != 77 {
		t.Errorf("TOL thresholds not applied: %+v", cfg.TOL)
	}
	if cfg.Timing == nil || cfg.Timing.IssueWidth != 4 {
		t.Errorf("timing config not applied: %+v", cfg.Timing)
	}
	if cfg.Power == nil || cfg.FreqMHz != 1500 {
		t.Errorf("power config not applied: power=%v freq=%v", cfg.Power, cfg.FreqMHz)
	}
	if cfg.ValidateEveryNSyncs != 7 {
		t.Errorf("validation interval %d", cfg.ValidateEveryNSyncs)
	}
	if cfg.MaxGuestInsns != 123456 {
		t.Errorf("max guest insns %d", cfg.MaxGuestInsns)
	}
	if eng.CheckInterval() != 999 {
		t.Errorf("check interval %d", eng.CheckInterval())
	}
}

func TestOptionDefaultsMatchDefaultConfig(t *testing.T) {
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	cfg := eng.Config()
	want := darco.DefaultConfig()
	if cfg.TOL.BBThreshold != want.TOL.BBThreshold || cfg.TOL.SBThreshold != want.TOL.SBThreshold ||
		cfg.TOL.CacheSize != want.TOL.CacheSize || cfg.TOL.RunFuel != want.TOL.RunFuel {
		t.Errorf("zero-option engine TOL differs from DefaultConfig")
	}
	if cfg.ValidateEveryNSyncs != want.ValidateEveryNSyncs || cfg.Timing != nil || cfg.Power != nil {
		t.Errorf("zero-option engine config %+v", cfg)
	}
	if eng.CheckInterval() != darco.DefaultCheckInterval {
		t.Errorf("default check interval %d", eng.CheckInterval())
	}
}

func TestEngineImmutableAgainstOptionArgs(t *testing.T) {
	tm := timing.DefaultConfig()
	eng, err := darco.NewEngine(darco.WithTiming(tm), darco.WithPower(power.DefaultEnergies(), 1000))
	if err != nil {
		t.Fatal(err)
	}
	tm.IssueWidth = 99 // mutate the option argument after construction
	if got := eng.Config().Timing.IssueWidth; got == 99 {
		t.Errorf("engine shares timing config with caller")
	}
	cfg := eng.Config()
	cfg.Timing.FetchWidth = 77 // mutate through the returned copy
	cfg.Power.DRAMRead = 1e9
	if eng.Config().Timing.FetchWidth == 77 || eng.Config().Power.DRAMRead == 1e9 {
		t.Errorf("Config() shares pointers with the engine")
	}
}

func TestPowerRequiresTiming(t *testing.T) {
	if _, err := darco.NewEngine(darco.WithPower(power.DefaultEnergies(), 1000)); err == nil {
		t.Fatal("WithPower without WithTiming should fail")
	}
	if _, err := darco.NewEngine(darco.WithTiming(timing.DefaultConfig()),
		darco.WithPower(power.DefaultEnergies(), 0)); err == nil {
		t.Fatal("WithPower with zero frequency should fail")
	}
}

// TestTimingConfigValidated: a timing configuration the core would index
// past an array with, or map through a mask that drops addresses, is
// refused by NewEngine with an error naming the field. The default and
// the width sweep of examples/timing-power build.
func TestTimingConfigValidated(t *testing.T) {
	bad := []struct {
		field string
		edit  func(*timing.Config)
	}{
		{"IQSize", func(c *timing.Config) { c.IQSize = 0 }},
		{"SimpleUnits", func(c *timing.Config) { c.SimpleUnits = 0 }},
		{"ComplexUnits", func(c *timing.Config) { c.ComplexUnits = 0 }},
		{"IssueWidth", func(c *timing.Config) { c.IssueWidth = -1 }},
		{"L1D.Sets", func(c *timing.Config) { c.L1D.Sets = 100 }},
		{"L2.LineBytes", func(c *timing.Config) { c.L2.LineBytes = 48 }},
		{"L1I.Ways", func(c *timing.Config) { c.L1I.Ways = 0 }},
		{"DTLB.Entries/Ways", func(c *timing.Config) { c.DTLB.Entries = 48 }},
		{"L2TLB.Ways", func(c *timing.Config) { c.L2TLB.Ways = 0 }},
		{"BPred.BTBEntries", func(c *timing.Config) { c.BPred.BTBEntries = 1000 }},
		{"BPred.GShareBits", func(c *timing.Config) { c.BPred.GShareBits = -1 }},
		{"PrefetchEntries", func(c *timing.Config) { c.PrefetchEntries = 12 }},
		{"MemLatency", func(c *timing.Config) { c.MemLatency = -1 }},
		{"L2TLB.Latency", func(c *timing.Config) { c.L2TLB.Latency = -7 }},
	}
	for _, tc := range bad {
		cfg := timing.DefaultConfig()
		tc.edit(&cfg)
		_, err := darco.NewEngine(darco.WithTiming(cfg))
		if err == nil || !strings.Contains(err.Error(), " "+tc.field+" ") {
			t.Errorf("%s: NewEngine error %v, want one naming the field", tc.field, err)
		}
	}
	good := []timing.Config{timing.DefaultConfig()}
	for _, width := range []int{1, 2, 4, 8} {
		tc := timing.DefaultConfig()
		tc.FetchWidth, tc.IssueWidth, tc.SimpleUnits = width, width, width
		tc.ComplexUnits, tc.MemReadPorts = (width+1)/2, (width+1)/2
		good = append(good, tc)
	}
	off := timing.DefaultConfig()
	off.PrefetchEntries = 0
	good = append(good, off)
	for _, cfg := range good {
		if _, err := darco.NewEngine(darco.WithTiming(cfg)); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

// endlessLoop is a guest program that runs ~4G instructions: far longer
// than any test budget, so only cancellation stops it.
const endlessLoop = `
.org 0x1000
.entry start
start:
    movri eax, 0
    movri ecx, 0
loop:
    addrr eax, ecx
    inc ecx
    cmpri ecx, 1000000000
    jl loop
    halt
`

func TestSessionCancellationIsPrompt(t *testing.T) {
	im, err := guest.Assemble(endlessLoop)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ses, err := eng.NewSession(im)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err = ses.Run(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// One check interval of guest instructions takes far less than
	// this; anything slower means cancellation is not being observed.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if ses.Done() {
		t.Error("cancelled session reports Done")
	}
	if ses.Err() != nil {
		t.Errorf("cancellation should not be terminal: %v", ses.Err())
	}
	// The partial state is still inspectable.
	if snap := ses.Snapshot(); snap.Stats.GuestInsns() == 0 {
		t.Error("cancelled session retired no instructions")
	}
}

func TestSessionResumesAfterCancellation(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		cfg         darco.Config
		cancelAfter uint64 // guest instructions retired before the cancel; 0 = cancelled before Run
		everyTick   bool   // and again at every progress tick of every resumed run
	}{
		{"before the first instruction", darco.DefaultConfig(), 0, false},
		{"mid-flight with timing", darco.TimingConfig(), 100_000, false},
		// Every run below ends with a target just published to the
		// shadow catch-up: the cancel comes from inside the tick.
		{"at every tick", darco.DefaultConfig(), 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// cancel is armed only for the interrupted run; the reference
			// run below shares the engine, observer included.
			var cancel context.CancelFunc
			eng, err := darco.NewEngine(darco.WithConfig(tc.cfg), darco.WithObserver(darco.ObserverFuncs{
				Progress: func(p darco.Progress) {
					if cancel != nil && p.GuestInsns >= tc.cancelAfter {
						cancel()
					}
				},
			}))
			if err != nil {
				t.Fatal(err)
			}
			ses, err := eng.NewSession(im)
			if err != nil {
				t.Fatal(err)
			}
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			if tc.cancelAfter == 0 {
				cancel()
			}
			if _, err := ses.Run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if got := ses.Snapshot().Stats.GuestInsns(); ses.Done() || (got == 0) != (tc.cancelAfter == 0) {
				t.Fatalf("cancelled at %d guest instructions (done %v), want a cancel after %d",
					got, ses.Done(), tc.cancelAfter)
			}
			// Resume; with everyTick each resumed run is cancelled again from
			// inside its first tick, so the session finishes an interval at
			// a time.
			var res *darco.Result
			resumes := 0
			for {
				ctx, cancel = context.Background(), nil
				if tc.everyTick {
					ctx, cancel = context.WithCancel(ctx)
				}
				res, err = ses.Run(ctx)
				if !tc.everyTick || !errors.Is(err, context.Canceled) {
					break
				}
				resumes++
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.everyTick && resumes < 3 {
				t.Fatalf("finished after %d resumes: the cancels did not land on ticks", resumes)
			}
			cancel = nil
			if !ses.Done() {
				t.Fatal("session not done after resumed run")
			}
			// The resumed run must match a clean one bit for bit.
			ref, err := eng.Run(context.Background(), im)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != ref.Stats {
				t.Errorf("resumed stats differ:\n%+v\n%+v", res.Stats, ref.Stats)
			}
			if res.Overhead != ref.Overhead || res.HostAppInsns != ref.HostAppInsns ||
				!bytes.Equal(res.Output, ref.Output) || res.ExitCode != ref.ExitCode ||
				res.Validations != ref.Validations || res.PageTransfers != ref.PageTransfers ||
				res.SyscallSyncs != ref.SyscallSyncs {
				t.Errorf("resumed result differs:\n%+v\n%+v", res, ref)
			}
			if tc.cfg.Timing != nil && *res.Timing != *ref.Timing {
				t.Errorf("resumed timing stats differ:\n%+v\n%+v", *res.Timing, *ref.Timing)
			}
		})
	}
}

func TestSessionStepAndSnapshotIsolation(t *testing.T) {
	p, _ := workload.ByName("470.lbm")
	im, err := p.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := darco.NewEngine(darco.WithTiming(timing.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := eng.NewSession(im)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := ses.Step(ctx, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if ses.Done() {
		t.Skip("workload too short for an incremental step")
	}
	g1 := first.Stats.GuestInsns()
	c1 := first.Timing.Cycles
	act1 := *first.Activity
	if g1 == 0 || c1 == 0 || act1.L1D.Accesses == 0 || act1.BPLookups == 0 {
		t.Fatalf("first step empty: %d insns, %d cycles, %+v", g1, c1, act1)
	}

	// Drive the session to completion; the first snapshot must not move.
	final, err := ses.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.GuestInsns() != g1 || first.Timing.Cycles != c1 || *first.Activity != act1 {
		t.Errorf("earlier snapshot mutated by later execution: %d cycles %+v now %d cycles %+v",
			c1, act1, first.Timing.Cycles, *first.Activity)
	}
	if final.Activity.L1D.Accesses <= act1.L1D.Accesses || final.Activity.BPLookups <= act1.BPLookups {
		t.Errorf("activity did not advance: %+v -> %+v", act1, *final.Activity)
	}
	if final.Stats.GuestInsns() <= g1 {
		t.Errorf("no forward progress: %d -> %d", g1, final.Stats.GuestInsns())
	}
	if final.Timing.TOLInsns != final.Overhead.Total() {
		t.Errorf("TOL charge %d vs overhead %d", final.Timing.TOLInsns, final.Overhead.Total())
	}

	// Steps after completion return the final result without running.
	again, err := ses.Step(ctx, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats != final.Stats {
		t.Errorf("post-completion step changed stats")
	}
}

func TestObserverStreams(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var bbEvents, sbEvents, validations, syscalls, finals, ticks int
	eng, err := darco.NewEngine(
		darco.WithCheckInterval(10_000),
		darco.WithObserver(darco.ObserverFuncs{
			Translation: func(ev darco.TranslationEvent) {
				switch ev.Kind {
				case darco.TranslationBB:
					bbEvents++
				case darco.TranslationSB:
					sbEvents++
				}
			},
			Sync: func(ev darco.SyncEvent) {
				switch ev.Kind {
				case darco.SyncValidation:
					validations++
				case darco.SyncSyscall:
					syscalls++
				case darco.SyncFinal:
					finals++
				}
			},
			Progress: func(p darco.Progress) { ticks++ },
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(bbEvents) != res.Stats.BBTranslations {
		t.Errorf("BB events %d vs %d translations", bbEvents, res.Stats.BBTranslations)
	}
	if uint64(sbEvents) != res.Stats.SBTranslations {
		t.Errorf("SB events %d vs %d translations", sbEvents, res.Stats.SBTranslations)
	}
	if uint64(validations) != res.Validations {
		t.Errorf("validation events %d vs %d validations", validations, res.Validations)
	}
	if uint64(syscalls) != res.SyscallSyncs {
		t.Errorf("syscall events %d vs %d syncs", syscalls, res.SyscallSyncs)
	}
	if finals != 1 {
		t.Errorf("final events %d", finals)
	}
	if res.Stats.GuestInsns() > 20_000 && ticks == 0 {
		t.Errorf("no progress ticks over %d guest insns", res.Stats.GuestInsns())
	}
}

func TestMaxGuestInsnsIsTerminal(t *testing.T) {
	im, err := guest.Assemble(endlessLoop)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := darco.NewEngine(darco.WithMaxGuestInsns(20_000))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := eng.NewSession(im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Run(context.Background()); err == nil {
		t.Fatal("runaway guest not aborted")
	}
	if ses.Err() == nil {
		t.Fatal("instruction-limit abort should be terminal")
	}
	if _, err := ses.Step(context.Background(), 1); err == nil {
		t.Fatal("terminal session accepted another step")
	}
}
