package darco_test

import (
	"context"
	"testing"

	darco "darco"
	"darco/internal/timing"
	"darco/internal/workload"
)

// streamTally accumulates everything a retire subscription delivered.
type streamTally struct {
	events      uint64
	batches     int
	maxBatch    int
	nextSeq     uint64
	seqGap      bool
	syncs       map[darco.SyncKind]int
	loads       uint64
	stores      uint64
	classCounts map[darco.RetireClass]uint64
	digest      uint64
}

func newStreamTally() *streamTally {
	return &streamTally{syncs: make(map[darco.SyncKind]int), classCounts: make(map[darco.RetireClass]uint64)}
}

// fold mixes one word into the digest (FNV-1a over 64-bit words). The
// digest covers everything a delivery carries — sequence numbers, sync
// markers and every event field — so two streams with equal digests
// were delivered identically, batch boundaries included.
func (t *streamTally) fold(v uint64) {
	t.digest = (t.digest ^ v) * 1099511628211
}

func (t *streamTally) sink(b darco.RetireBatch) {
	if b.Seq != t.nextSeq {
		t.seqGap = true
	}
	t.nextSeq = b.Seq + 1
	t.batches++
	t.fold(b.Seq)
	if b.Sync != nil {
		t.syncs[b.Sync.Kind]++
		t.fold(uint64(b.Sync.Kind))
		t.fold(b.Sync.GuestInsns)
		t.fold(b.Sync.GuestBBs)
		t.fold(uint64(b.Sync.Addr))
		return
	}
	t.events += uint64(len(b.Events))
	if len(b.Events) > t.maxBatch {
		t.maxBatch = len(b.Events)
	}
	for i := range b.Events {
		ev := &b.Events[i]
		if ev.Load {
			t.loads++
		}
		if ev.Store {
			t.stores++
		}
		t.classCounts[ev.Class]++
		flags := uint64(0)
		if ev.Taken {
			flags |= 1
		}
		if ev.Load {
			flags |= 2
		}
		if ev.Store {
			flags |= 4
		}
		t.fold(uint64(ev.Op)<<40 | uint64(ev.Class)<<32 | uint64(ev.GuestPC))
		t.fold(uint64(ev.PC)<<32 | uint64(ev.Target))
		t.fold(uint64(ev.Addr)<<8 | flags)
	}
}

func TestRetireStreamAccountsEveryAppInstruction(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.05).Generate()
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
	tally := newStreamTally()
	ses.SubscribeRetires(tally.sink, darco.WithRetireEvents(), darco.WithRetireBatchSize(1000))
	res, err := ses.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tally.events != res.HostAppInsns {
		t.Errorf("streamed %d events, session retired %d app host insns", tally.events, res.HostAppInsns)
	}
	if tally.seqGap {
		t.Error("batch sequence numbers not contiguous")
	}
	if tally.maxBatch > 1000 {
		t.Errorf("batch of %d events exceeds requested size 1000", tally.maxBatch)
	}
	if got, want := tally.syncs[darco.SyncSyscall], int(res.SyscallSyncs); got != want {
		t.Errorf("syscall markers %d, syncs %d", got, want)
	}
	if got, want := tally.syncs[darco.SyncValidation], int(res.Validations); got != want {
		t.Errorf("validation markers %d, validations %d", got, want)
	}
	if got, want := tally.syncs[darco.SyncPageTransfer], int(res.PageTransfers); got != want {
		t.Errorf("page markers %d, transfers %d", got, want)
	}
	if got := tally.syncs[darco.SyncFinal]; got != 1 {
		t.Errorf("final markers %d", got)
	}
	if tally.loads == 0 || tally.stores == 0 {
		t.Errorf("no memory traffic in stream: %d loads, %d stores", tally.loads, tally.stores)
	}
	if tally.classCounts[darco.RetireBranch] == 0 || tally.classCounts[darco.RetireSimple] == 0 {
		t.Errorf("class mix empty: %v", tally.classCounts)
	}
}

func TestRetireStreamDeterministicAcrossRuns(t *testing.T) {
	p, _ := workload.ByName("458.sjeng")
	im, err := p.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		cfg  darco.Config
	}{
		{"functional", darco.DefaultConfig()},
		{"timing", darco.TimingConfig()},
	} {
		t.Run(mode.name, func(t *testing.T) {
			run := func() (*streamTally, *darco.Result) {
				eng, err := darco.NewEngine(darco.WithConfig(mode.cfg))
				if err != nil {
					t.Fatal(err)
				}
				ses, err := eng.NewSession(im)
				if err != nil {
					t.Fatal(err)
				}
				tally := newStreamTally()
				ses.SubscribeRetires(tally.sink, darco.WithRetireEvents())
				res, err := ses.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return tally, res
			}
			a, resA := run()
			b, resB := run()
			if a.events == 0 {
				t.Fatal("no retire events streamed")
			}
			if a.digest != b.digest || a.batches != b.batches {
				t.Errorf("retire streams differ across identical runs: %#x in %d deliveries vs %#x in %d",
					a.digest, a.batches, b.digest, b.batches)
			}
			if resA.Stats != resB.Stats {
				t.Errorf("stats differ across identical runs:\n%+v\n%+v", resA.Stats, resB.Stats)
			}
			if mode.cfg.Timing != nil && *resA.Timing != *resB.Timing {
				t.Errorf("timing stats differ across identical runs:\n%+v\n%+v", *resA.Timing, *resB.Timing)
			}
		})
	}
}

func TestRetireStreamDoesNotPerturbTiming(t *testing.T) {
	p, _ := workload.ByName("470.lbm")
	im, err := p.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	run := func(subscribe bool) *darco.Result {
		eng, err := darco.NewEngine(darco.WithTiming(timing.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		ses, err := eng.NewSession(im)
		if err != nil {
			t.Fatal(err)
		}
		if subscribe {
			ses.SubscribeRetires(func(darco.RetireBatch) {}, darco.WithRetireEvents())
		}
		res, err := ses.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, subscribed := run(false), run(true)
	if plain.Timing.Cycles != subscribed.Timing.Cycles {
		t.Errorf("subscription changed timing: %d vs %d cycles", plain.Timing.Cycles, subscribed.Timing.Cycles)
	}
	if plain.Stats != subscribed.Stats {
		t.Errorf("subscription changed functional stats")
	}
}

func TestRetireStreamSubscribeAndUnsubscribeMidSession(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.05).Generate()
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
	ctx := context.Background()

	// Phase 1: no subscriber.
	first, err := ses.Step(ctx, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if ses.Done() {
		t.Skip("workload too short for an incremental step")
	}

	// Phase 2: subscribed for one step.
	tally := newStreamTally()
	cancel := ses.SubscribeRetires(tally.sink, darco.WithRetireEvents())
	second, err := ses.Step(ctx, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	phase2 := tally.events

	// Phase 3: unsubscribed to completion.
	cancel()
	cancel() // idempotent
	final, err := ses.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := second.HostAppInsns - first.HostAppInsns; phase2 != want {
		t.Errorf("subscribed step streamed %d events, retired %d app insns", phase2, want)
	}
	if tally.events != phase2 {
		t.Errorf("events delivered after unsubscribe: %d -> %d", phase2, tally.events)
	}
	if final.HostAppInsns <= second.HostAppInsns {
		t.Error("no progress after unsubscribe")
	}
}

func TestUnsubscribeFromInsideSink(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.05).Generate()
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
	// Three subscribers; the first stops itself after two deliveries
	// from inside its own callback. The others must keep seeing every
	// delivery exactly once.
	var aBatches int
	var cancelA func()
	cancelA = ses.SubscribeRetires(func(b darco.RetireBatch) {
		aBatches++
		if aBatches == 2 {
			cancelA()
		}
	})
	tallyB := newStreamTally()
	tallyC := newStreamTally()
	ses.SubscribeRetires(tallyB.sink, darco.WithRetireEvents())
	ses.SubscribeRetires(tallyC.sink)
	res, err := ses.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if aBatches != 2 {
		t.Errorf("self-cancelled sink heard %d batches after unsubscribing at 2", aBatches)
	}
	if tallyB.seqGap || tallyC.seqGap {
		t.Error("surviving subscribers skipped or repeated a delivery")
	}
	if tallyB.events != res.HostAppInsns || tallyC.events != res.HostAppInsns {
		t.Errorf("survivors saw %d/%d events, session retired %d",
			tallyB.events, tallyC.events, res.HostAppInsns)
	}
}

func TestWithRetireStreamEngineOption(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	tally := newStreamTally()
	eng, err := darco.NewEngine(darco.WithRetireStream(tally.sink, darco.WithRetireEvents(), darco.WithRetireBatchSize(512)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if tally.events != res.HostAppInsns {
		t.Errorf("engine-level sink saw %d events, session retired %d", tally.events, res.HostAppInsns)
	}
	if tally.maxBatch > 512 {
		t.Errorf("batch of %d exceeds requested 512", tally.maxBatch)
	}

	// Campaigns must not inherit the engine's sink: parallel scenarios
	// would hammer it concurrently. The sink's counters are only
	// touched if inheritance leaks, which the race detector would also
	// flag.
	before := tally.events
	scenarios := []darco.Scenario{{Name: "a", Profile: p, Scale: 0.05}, {Name: "b", Profile: p, Scale: 0.05}}
	rep, err := eng.RunCampaign(context.Background(), scenarios, darco.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if tally.events != before {
		t.Errorf("campaign scenarios leaked %d events into the engine-level sink", tally.events-before)
	}
}

// TestSubscribersWithDifferentBatchSizesSeeTheSameDeliveries: the
// session cuts wherever any subscriber's batch size asks, so two
// subscribers with different sizes hear one identical sequence of
// deliveries — and every multiple of either size is a delivery
// boundary, which is what lets each of them count on its own size.
func TestSubscribersWithDifferentBatchSizesSeeTheSameDeliveries(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := workload.CachedImage(p.Scale(0.05))
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
	type delivery struct {
		seq    uint64
		mix    darco.RetireMix
		events int
		sync   bool
	}
	record := func(into *[]delivery) darco.RetireSink {
		return func(b darco.RetireBatch) {
			*into = append(*into, delivery{b.Seq, b.Mix, len(b.Events), b.Sync != nil})
		}
	}
	var a, b []delivery
	ses.SubscribeRetires(record(&a), darco.WithRetireBatchSize(1000))
	ses.SubscribeRetires(record(&b), darco.WithRetireBatchSize(4096), darco.WithRetireEvents())
	res, err := ses.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("subscribers heard %d and %d deliveries", len(a), len(b))
	}
	boundaries := map[uint64]bool{}
	var total uint64
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].sync {
			continue
		}
		if a[i].mix.Insns == 0 || a[i].mix.Insns > 1000 || uint64(a[i].events) != a[i].mix.Insns {
			t.Fatalf("delivery %d: %d insns, %d events (smallest batch size 1000)", i, a[i].mix.Insns, a[i].events)
		}
		total += a[i].mix.Insns
		boundaries[total] = true
	}
	if total != res.HostAppInsns {
		t.Errorf("deliveries cover %d insns, session retired %d", total, res.HostAppInsns)
	}
	for _, size := range []uint64{1000, 4096} {
		for at := size; at <= total; at += size {
			if !boundaries[at] {
				t.Fatalf("no delivery boundary at %d, a multiple of batch size %d", at, size)
			}
		}
	}
}
