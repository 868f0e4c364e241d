package darco_test

import (
	"context"
	"testing"

	darco "darco"
	"darco/internal/timing"
	"darco/internal/workload"
	"darco/obs"
)

// TestObsCountersAttached proves WithObsCounters populates the hot-path
// counters and surfaces a snapshot on Result, and that the counted
// events reconcile with the run's own statistics.
func TestObsCountersAttached(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := darco.NewEngine(
		darco.WithTiming(timing.DefaultConfig()),
		darco.WithObsCounters(&obs.EngineCounters{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("Result.Obs nil with counters attached")
	}
	s := *res.Obs
	if s.DecodeHits == 0 || s.DecodeMisses == 0 {
		t.Errorf("decode counters empty: %+v", s)
	}
	if s.BlockHits == 0 || s.BlockMisses == 0 {
		t.Errorf("block counters empty: %+v", s)
	}
	// Every dispatch did exactly one block-cache lookup.
	if got := s.BlockHits + s.BlockMisses; got != res.Stats.Dispatches {
		t.Errorf("block lookups %d != dispatches %d", got, res.Stats.Dispatches)
	}
	if res.Phases.Emulate <= 0 {
		t.Errorf("emulate phase not measured: %+v", res.Phases)
	}
	if res.Phases.CatchUp <= 0 || res.Phases.CatchUp >= res.Phases.Emulate {
		t.Errorf("catch-up is not a measured part of emulate: %+v", res.Phases)
	}
}

// TestObsCountersDetached proves the default path carries no snapshot
// and a derived campaign engine inherits attached counters.
func TestObsCountersDetached(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != nil {
		t.Fatalf("Result.Obs = %+v without WithObsCounters", res.Obs)
	}
}

// TestObsCountersInheritedByCampaign proves a campaign's derived
// per-scenario engines keep feeding the engine's counters instance.
func TestObsCountersInheritedByCampaign(t *testing.T) {
	ctrs := &obs.EngineCounters{}
	eng, err := darco.NewEngine(darco.WithObsCounters(ctrs))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ByName("429.mcf")
	scens := []darco.Scenario{
		{Name: "a", Profile: p, Scale: 0.05},
		{Name: "b", Profile: p, Scale: 0.05},
	}
	rep, err := eng.RunCampaign(context.Background(), scens, darco.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Result.Obs == nil {
			t.Fatalf("scenario %s result carries no counters snapshot", r.Scenario.Name)
		}
	}
	if ctrs.DecodeHits.Load()+ctrs.DecodeMisses.Load() == 0 {
		t.Error("campaign scenarios did not feed the shared counters")
	}
}
