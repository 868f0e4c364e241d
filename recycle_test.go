package darco

import (
	"context"
	"fmt"
	"testing"

	"darco/internal/codecache"
	"darco/internal/tol"
	"darco/internal/workload"
	"darco/obs"
)

// A finished session's guest pages and translated code go to the next
// session the process runs. These tests hold what that must not change:
// every result of a campaign, at any parallelism and whatever the free
// lists held when it started, and a session that did not finish keeping
// its memory.

// recycleScenarios is a small roster with four times the profiles'
// static code, under a code cache of one and a half chunks: each
// scenario's translations fill it several times, so blocks sit in
// several chunks when a flush drops them all.
func recycleScenarios(t *testing.T, ctrs *obs.EngineCounters) []Scenario {
	t.Helper()
	cfg := tol.DefaultConfig()
	cfg.CacheSize = 3 * codecache.ChunkInsts / 2
	cfg.Counters = ctrs
	var scs []Scenario
	for _, name := range []string{"429.mcf", "433.milc", "400.perlbench", "470.lbm"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		p.Funcs *= 4
		scs = append(scs, Scenario{Profile: p, Scale: 0.05, Options: []Option{WithTOL(cfg)}})
	}
	return scs
}

// resultKey is everything a scenario's result says about the simulated
// run: its statistics, the modelled overhead, the synchronizations, the
// guest's output and exit code.
func resultKey(r *Result) string {
	return fmt.Sprintf("%+v %v app=%d val=%d xfer=%d sync=%d exit=%d out=%x",
		r.Stats, r.Overhead.Cat, r.HostAppInsns, r.Validations, r.PageTransfers, r.SyscallSyncs, r.ExitCode, r.Output)
}

// TestRecycledCampaignMatchesFirst runs one campaign twice in a process,
// serially and then on two workers, the second run's sessions on the
// memory and code chunks the first run's released, and requires every
// result to equal the first run's.
func TestRecycledCampaignMatchesFirst(t *testing.T) {
	ctrs := &obs.EngineCounters{}
	scs := recycleScenarios(t, ctrs)
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	for run, par := range []int{1, 2} {
		rep, err := eng.RunCampaign(context.Background(), scs, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.Results {
			sr := &rep.Results[i]
			if sr.Err != nil {
				t.Fatalf("run %d (parallelism %d): %s: %v", run, par, sr.Scenario.Name, sr.Err)
			}
			key := resultKey(sr.Result)
			if run == 0 {
				first = append(first, key)
			} else if key != first[i] {
				t.Errorf("run %d (parallelism %d): %s:\n got %s\nwant %s", run, par, sr.Scenario.Name, key, first[i])
			}
		}
	}
	if n := ctrs.CodeFlushes.Load(); n < uint64(2*2*len(scs)) {
		t.Fatalf("%d code cache flushes over two runs; the test needs several per scenario", n)
	}
}

// TestPanicBeforeReleaseKeepsMemory: a session whose run panics is not
// released, since the authoritative component's goroutine may not have
// been joined: its memories and code cache keep everything they hold,
// and the free lists get none of it.
func TestPanicBeforeReleaseKeepsMemory(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	obsv := &panicAfterTranslation{}
	sc := Scenario{Profile: p, Scale: 0.05, Options: []Option{WithObserver(obsv)}}
	var sess *Session
	cc := &campaignConfig{onSession: []func(int, *Scenario, *Session){
		func(_ int, _ *Scenario, s *Session) { sess = s },
	}}
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != errPlanted {
				t.Fatalf("recovered %v, want the planted panic", r)
			}
		}()
		eng.runScenario(context.Background(), 0, sc, cc)
	}()
	if sess == nil {
		t.Fatal("the session hook never ran")
	}
	ctl := sess.ctl
	if ctl.X86.Mem.PageCount() == 0 || ctl.CoD.Mem.PageCount() == 0 {
		t.Errorf("memories were emptied: x86 %d pages, co-designed %d", ctl.X86.Mem.PageCount(), ctl.CoD.Mem.PageCount())
	}
	if ctl.CoD.Cache.Len() == 0 || ctl.CoD.Cache.Used() == 0 {
		t.Errorf("code cache was emptied: %d blocks, %d insns", ctl.CoD.Cache.Len(), ctl.CoD.Cache.Used())
	}
}

var errPlanted = fmt.Errorf("planted observer panic")

// panicAfterTranslation panics at the first synchronization after the
// session's first translation.
type panicAfterTranslation struct{ translated bool }

func (o *panicAfterTranslation) OnTranslation(TranslationEvent) { o.translated = true }
func (o *panicAfterTranslation) OnProgress(Progress)            {}
func (o *panicAfterTranslation) OnSync(SyncEvent) {
	if o.translated {
		panic(errPlanted)
	}
}
