package darco_test

// The determinism harness for the pipelined timing simulator: whatever
// the window depth, a timing-mode run must produce byte-identical Stats
// (functional, overhead AND timing counters) and an identical retire
// stream to the synchronous depth-0 reference. The whole value of the
// pipeline is that it buys wall-clock speed without costing a single
// bit of the paper's figures.

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"
	"time"

	darco "darco"

	"darco/internal/workload"
)

// pipelineDepths are the windows exercised against the synchronous
// reference in CI (depth 0 is the reference itself).
var pipelineDepths = []int{1, 8, 64}

// retireTrace folds a session's entire retire stream — instruction
// events and sync markers, with their delivery sequence numbers — into
// one running FNV-64a digest, so two runs can be compared event for
// event without retaining millions of events.
type retireTrace struct {
	digest     uint64
	events     uint64
	syncs      uint64
	deliveries uint64
}

func (tr *retireTrace) sink(b darco.RetireBatch) {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(tr.digest)
	w64(b.Seq)
	tr.deliveries++
	if b.Sync != nil {
		tr.syncs++
		w64(uint64(b.Sync.Kind))
		w64(b.Sync.GuestInsns)
		w64(b.Sync.GuestBBs)
		w64(uint64(b.Sync.Addr))
	}
	for i := range b.Events {
		ev := &b.Events[i]
		tr.events++
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
		w64(uint64(ev.Class)<<32 | uint64(ev.GuestPC))
		w64(uint64(ev.PC)<<32 | uint64(ev.Target))
		w64(uint64(ev.Addr)<<8 | flags)
		h.Write([]byte(ev.Op.String()))
	}
	tr.digest = h.Sum64()
}

type pipelineOutcome struct {
	res   *darco.Result
	trace retireTrace
}

func runTimingAtDepth(t *testing.T, bench string, scale float64, depth int) pipelineOutcome {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown workload %s", bench)
	}
	im, err := workload.CachedImage(p.Scale(scale))
	if err != nil {
		t.Fatal(err)
	}
	var out pipelineOutcome
	eng, err := darco.NewEngine(
		darco.WithConfig(darco.TimingConfig()),
		darco.WithTimingPipeline(depth),
		darco.WithRetireStream(out.trace.sink, darco.WithRetireEvents()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	out.res = res
	return out
}

// requireSameOutcome asserts every deterministic counter and the full
// retire-stream digest match between a pipelined run and the reference.
func requireSameOutcome(t *testing.T, depth int, got, ref *pipelineOutcome) {
	t.Helper()
	if got.res.Stats != ref.res.Stats {
		t.Errorf("depth %d: guest Stats diverge from synchronous reference:\n got %+v\nwant %+v",
			depth, got.res.Stats, ref.res.Stats)
	}
	if got.res.Overhead != ref.res.Overhead {
		t.Errorf("depth %d: TOL overhead diverges", depth)
	}
	if got.res.HostAppInsns != ref.res.HostAppInsns {
		t.Errorf("depth %d: host app insns %d, reference %d", depth, got.res.HostAppInsns, ref.res.HostAppInsns)
	}
	if got.res.Timing == nil || ref.res.Timing == nil {
		t.Fatalf("depth %d: missing timing stats (got %v, ref %v)", depth, got.res.Timing, ref.res.Timing)
	}
	if *got.res.Timing != *ref.res.Timing {
		t.Errorf("depth %d: timing Stats diverge from synchronous reference:\n got %+v\nwant %+v",
			depth, *got.res.Timing, *ref.res.Timing)
	}
	if got.trace != ref.trace {
		t.Errorf("depth %d: retire stream diverges: got %+v, reference %+v", depth, got.trace, ref.trace)
	}
}

// TestTimingPipelineBitIdentical is the property test: 429.mcf and
// 433.milc at every CI depth against the synchronous reference.
func TestTimingPipelineBitIdentical(t *testing.T) {
	scale := 0.2
	if testing.Short() {
		scale = 0.1
	}
	for _, bench := range []string{"429.mcf", "433.milc"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			ref := runTimingAtDepth(t, bench, scale, 0)
			if ref.trace.events == 0 {
				t.Fatal("reference run produced no retire events")
			}
			for _, depth := range pipelineDepths {
				got := runTimingAtDepth(t, bench, scale, depth)
				requireSameOutcome(t, depth, &got, &ref)
			}
		})
	}
}

// TestTimingPipelineStepped drives a pipelined session through small
// Step budgets — every Step starts and drains the pipeline — and
// requires the final counters and retire stream to match a synchronous
// depth-0 session stepped identically (stepping itself changes the
// excursion cadence, and with it the stream's batch boundaries, so the
// reference must step the same way).
func TestTimingPipelineStepped(t *testing.T) {
	step := func(depth int) pipelineOutcome {
		t.Helper()
		p, _ := workload.ByName("429.mcf")
		im, err := workload.CachedImage(p.Scale(0.1))
		if err != nil {
			t.Fatal(err)
		}
		out := pipelineOutcome{}
		eng, err := darco.NewEngine(
			darco.WithConfig(darco.TimingConfig()),
			darco.WithTimingPipeline(depth),
			darco.WithRetireStream(out.trace.sink, darco.WithRetireEvents()),
		)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.NewSession(im)
		if err != nil {
			t.Fatal(err)
		}
		for !sess.Done() {
			out.res, err = sess.Step(context.Background(), 40_000)
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	ref := step(0)
	got := step(8)
	requireSameOutcome(t, 8, &got, &ref)
}

// TestTimingPipelineCancelAndResume cancels a pipelined run mid-flight
// (the drain-on-cancel path), resumes it with a fresh context, and
// requires the completed run to match the synchronous reference — the
// pipeline must neither drop nor replay events across the interruption.
func TestTimingPipelineCancelAndResume(t *testing.T) {
	ref := runTimingAtDepth(t, "429.mcf", 0.1, 0)

	p, _ := workload.ByName("429.mcf")
	im, err := workload.CachedImage(p.Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var tr retireTrace
	// Same check interval as the reference: excursion boundaries flush
	// retire-stream batches, so the cadence is part of the stream shape
	// (cancellation itself must not add or move a single delivery).
	eng, err := darco.NewEngine(
		darco.WithConfig(darco.TimingConfig()),
		darco.WithTimingPipeline(8),
		darco.WithRetireStream(tr.sink, darco.WithRetireEvents()),
	)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(im)
	if err != nil {
		t.Fatal(err)
	}
	var res *darco.Result
	for !sess.Done() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		res, err = sess.Run(ctx)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				continue // cancelled mid-run: resume
			}
			t.Fatal(err)
		}
	}
	got := pipelineOutcome{res: res, trace: tr}
	requireSameOutcome(t, 8, &got, &ref)
}
