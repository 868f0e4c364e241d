package timing_test

import (
	"testing"

	"darco/internal/timing"
)

// TestPipelineReplayMatchesSynchronous is the benchmark probe's own
// check: a recorded stream replayed through NewPipeline/Start/Push/Stop
// leaves the core exactly where the synchronous replay does — every
// event once, in order, across several batches. Before Start, Push is
// a synchronous call.
func TestPipelineReplayMatchesSynchronous(t *testing.T) {
	_, events := runTimed(t, "429.mcf", 0.05, 100_000)
	if len(events) < 10_000 {
		t.Fatalf("recorded %d events, want a stream spanning several batches", len(events))
	}
	ref := timing.New(timing.DefaultConfig())
	for i := range events {
		events[i].feed(ref.Consume)
	}

	piped := timing.New(timing.DefaultConfig())
	pipe := timing.NewPipeline(piped.Consume, 8)
	const early = 100
	for i := range events[:early] {
		events[i].feed(pipe.Push)
	}
	if piped.Stats.Insns != early {
		t.Fatalf("core consumed %d of %d events pushed before Start: Push must be synchronous while stopped",
			piped.Stats.Insns, early)
	}
	pipe.Start()
	for i := range events[early:] {
		events[early+i].feed(pipe.Push)
	}
	pipe.Stop()
	if piped.Stats != ref.Stats {
		t.Errorf("pipelined replay diverged from the synchronous replay:\n got %+v\nwant %+v", piped.Stats, ref.Stats)
	}
}
