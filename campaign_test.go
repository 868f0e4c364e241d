package darco_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	darco "darco"
	"darco/internal/power"
	"darco/internal/workload"
)

func TestSuiteScenariosCoverRoster(t *testing.T) {
	scs := darco.SuiteScenarios(0.5)
	suites := workload.Suites()
	if len(scs) != len(suites) {
		t.Fatalf("%d scenarios for %d profiles", len(scs), len(suites))
	}
	for i, sc := range scs {
		if sc.Name != suites[i].Name || sc.Scale != 0.5 {
			t.Errorf("scenario %d: %q scale %v", i, sc.Name, sc.Scale)
		}
	}
}

// TestCampaignParallelMatchesSerial is the determinism acceptance test:
// the full workload roster executed on a parallel worker pool must
// produce per-scenario statistics identical to a serial execution.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scs := darco.SuiteScenarios(0.03)

	serial, err := eng.RunCampaign(ctx, scs, darco.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := eng.RunCampaign(ctx, scs, darco.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Parallelism != 1 || parallel.Parallelism != 8 {
		t.Fatalf("pool widths %d / %d", serial.Parallelism, parallel.Parallelism)
	}
	if len(serial.Results) != len(scs) || len(parallel.Results) != len(scs) {
		t.Fatalf("result counts %d / %d", len(serial.Results), len(parallel.Results))
	}
	for i := range scs {
		s, p := &serial.Results[i], &parallel.Results[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s: serial err %v, parallel err %v", scs[i].Name, s.Err, p.Err)
		}
		if s.Scenario.Name != p.Scenario.Name {
			t.Fatalf("result order diverged at %d: %q vs %q", i, s.Scenario.Name, p.Scenario.Name)
		}
		if s.Result.Stats != p.Result.Stats {
			t.Errorf("%s: stats differ between serial and parallel execution:\n%+v\n%+v",
				scs[i].Name, s.Result.Stats, p.Result.Stats)
		}
		if string(s.Result.Output) != string(p.Result.Output) {
			t.Errorf("%s: outputs differ between serial and parallel execution", scs[i].Name)
		}
	}
}

func TestCampaignFailFast(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	mk := func(name string, opts ...darco.Option) darco.Scenario {
		return darco.Scenario{Name: name, Profile: p, Scale: 0.05, Options: opts}
	}
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	scs := []darco.Scenario{
		mk("doomed", darco.WithMaxGuestInsns(1000)), // aborts almost immediately
		mk("second"),
		mk("third"),
	}
	rep, err := eng.RunCampaign(context.Background(), scs,
		darco.WithParallelism(1), darco.WithFailFast())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Err == nil {
		t.Fatal("doomed scenario did not fail")
	}
	if !strings.Contains(rep.Results[0].Err.Error(), "doomed") {
		t.Errorf("error not labelled with scenario name: %v", rep.Results[0].Err)
	}
	if rep.Results[2].Err == nil || !errors.Is(rep.Results[2].Err, context.Canceled) {
		t.Errorf("fail-fast did not cancel pending scenarios: %v", rep.Results[2].Err)
	}
	if rep.Err() == nil {
		t.Error("report hides the failures")
	}
	if len(rep.Failed()) < 2 {
		t.Errorf("failed count %d", len(rep.Failed()))
	}
}

func TestCampaignCollectErrorsPolicy(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	scs := []darco.Scenario{
		{Name: "doomed", Profile: p, Scale: 0.05, Options: []darco.Option{darco.WithMaxGuestInsns(1000)}},
		{Name: "fine", Profile: p, Scale: 0.05},
	}
	rep, err := eng.RunCampaign(context.Background(), scs, darco.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Err == nil {
		t.Error("doomed scenario did not fail")
	}
	if rep.Results[1].Err != nil {
		t.Errorf("collect-errors policy cancelled a healthy scenario: %v", rep.Results[1].Err)
	}
	if rep.Results[1].Result == nil || rep.Results[1].Result.Stats.GuestInsns() == 0 {
		t.Error("healthy scenario produced no result")
	}
	if rep.Results[1].Wall <= 0 {
		t.Error("scenario wall time not recorded")
	}
	if rep.SerialWall() <= 0 {
		t.Error("serial-equivalent wall empty")
	}
}

func TestCampaignScenarioTimeout(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	scs := []darco.Scenario{{Name: "slow", Profile: p, Scale: 2}}
	rep, err := eng.RunCampaign(context.Background(), scs,
		darco.WithScenarioTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", rep.Results[0].Err)
	}
}

func TestCampaignParentCancellation(t *testing.T) {
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := eng.RunCampaign(ctx, darco.SuiteScenarios(0.05), darco.WithParallelism(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil || len(rep.Results) != len(workload.Suites()) {
		t.Fatal("report missing after parent cancellation")
	}
}

// TestCampaignMidRunCancellation pins the contract the serve daemon's
// cancel endpoint depends on: cancelling the campaign context while
// scenarios are in flight stops the queued remainder promptly, and
// context.Canceled surfaces both from RunCampaign and from the
// report's joined scenario errors.
func TestCampaignMidRunCancellation(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	scs := make([]darco.Scenario, 6)
	for i := range scs {
		scs[i] = darco.Scenario{Name: p.Name, Profile: p, Scale: 0.05}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := true
	rep, err := eng.RunCampaign(ctx, scs,
		darco.WithParallelism(1),
		darco.WithScenarioDone(func(i int, sr *darco.ScenarioResult) {
			if first {
				first = false
				cancel() // cancel mid-campaign, after the first scenario lands
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCampaign returned %v, want context.Canceled", err)
	}
	if !errors.Is(rep.Err(), context.Canceled) {
		t.Fatalf("report.Err() = %v, does not surface context.Canceled", rep.Err())
	}
	if rep.Results[0].Err != nil {
		t.Errorf("scenario completed before the cancel was marked failed: %v", rep.Results[0].Err)
	}
	for i := 1; i < len(scs); i++ {
		if !errors.Is(rep.Results[i].Err, context.Canceled) {
			t.Errorf("queued scenario %d not stopped by cancellation: %v", i, rep.Results[i].Err)
		}
	}
}

func TestCampaignScenarioSessionHook(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	scs := []darco.Scenario{
		{Name: "a", Profile: p, Scale: 0.05},
		{Name: "broken", Profile: p, Scale: 0.05,
			// Power without timing fails engine derivation, so no
			// session ever exists for this scenario.
			Options: []darco.Option{darco.WithPower(power.DefaultEnergies(), 1000)}},
		{Name: "c", Profile: p, Scale: 0.05},
	}
	var mu sync.Mutex
	retires := make(map[int]uint64)
	var secondHook int
	rep, err := eng.RunCampaign(context.Background(), scs, darco.WithParallelism(2),
		darco.WithScenarioSession(func(i int, sc *darco.Scenario, s *darco.Session) {
			// Hooks run concurrently on worker goroutines; the sink runs
			// on this scenario's session goroutine only.
			s.SubscribeRetires(func(b darco.RetireBatch) {
				mu.Lock()
				retires[i] += b.Mix.Insns
				mu.Unlock()
			})
		}),
		// The option composes: both hooks must fire for every session.
		darco.WithScenarioSession(func(i int, sc *darco.Scenario, s *darco.Session) {
			mu.Lock()
			secondHook++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[1].Err == nil {
		t.Fatal("broken scenario unexpectedly succeeded")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := retires[1]; ok {
		t.Error("session hook fired for a scenario whose engine derivation failed")
	}
	if secondHook != 2 {
		t.Errorf("composed session hook fired %d times, want 2", secondHook)
	}
	for _, i := range []int{0, 2} {
		if retires[i] == 0 {
			t.Errorf("scenario %d: session hook attached no live retire stream (0 events)", i)
		}
		if want := rep.Results[i].Result.HostAppInsns; retires[i] != want {
			t.Errorf("scenario %d: streamed %d retires, result reports %d host app insns", i, retires[i], want)
		}
	}
}

func TestCampaignReportFormat(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RunCampaign(context.Background(),
		[]darco.Scenario{{Name: "429.mcf", Profile: p, Scale: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, want := range []string{"scenario", "429.mcf", "workers", "0 failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
