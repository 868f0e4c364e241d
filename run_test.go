package darco_test

import (
	"context"
	"strings"
	"testing"

	darco "darco"
	"darco/internal/power"
	"darco/internal/timing"
	"darco/internal/tol"
	"darco/internal/workload"
)

func TestRunFunctional(t *testing.T) {
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
	im2, bbm, sbm := res.ModeShares()
	if s := im2 + bbm + sbm; s < 0.999 || s > 1.001 {
		t.Errorf("mode shares sum %f", s)
	}
	if res.HostAppInsns == 0 || res.Overhead.Total() == 0 {
		t.Errorf("instruction accounting empty")
	}
	if res.EmulationCostSBM() <= 1 {
		t.Errorf("emulation cost %f", res.EmulationCostSBM())
	}
	if f := res.TOLOverheadFrac(); f <= 0 || f >= 1 {
		t.Errorf("overhead fraction %f", f)
	}
	if len(res.Output) != 4 {
		t.Errorf("output %d bytes", len(res.Output))
	}
	if res.Timing != nil || res.Power != nil {
		t.Errorf("simulators attached without being requested")
	}
	sum := res.Summary()
	for _, want := range []string{"guest insns", "emulation", "translations", "speed"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestRunWithTimingAndPower(t *testing.T) {
	p, _ := workload.ByName("470.lbm")
	im, err := p.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := darco.NewEngine(
		darco.WithTiming(timing.DefaultConfig()),
		darco.WithPower(power.DefaultEnergies(), 1000),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing == nil || res.Power == nil || res.Activity == nil {
		t.Fatal("simulators missing")
	}
	if res.Timing.Cycles == 0 || res.Timing.IPC() <= 0 {
		t.Errorf("timing: %+v", res.Timing)
	}
	if res.Timing.TOLInsns != res.Overhead.Total() {
		t.Errorf("TOL insns %d vs overhead %d", res.Timing.TOLInsns, res.Overhead.Total())
	}
	if res.Power.TotalJ <= 0 || res.Power.AvgPowerW <= 0 {
		t.Errorf("power: %+v", res.Power)
	}
	if !strings.Contains(res.Summary(), "timing") {
		t.Errorf("summary missing timing line")
	}
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	p, _ := workload.ByName("458.sjeng")
	im, err := p.Scale(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if string(a.Output) != string(b.Output) {
		t.Errorf("outputs differ")
	}
}

func TestThresholdSweepShiftsModes(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	low := tol.DefaultConfig()
	low.SBThreshold = 20
	high := tol.DefaultConfig()
	high.SBThreshold = 100_000 // effectively never promote
	engLow, err := darco.NewEngine(darco.WithTOL(low))
	if err != nil {
		t.Fatal(err)
	}
	engHigh, err := darco.NewEngine(darco.WithTOL(high))
	if err != nil {
		t.Fatal(err)
	}
	rl, err := engLow.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := engHigh.Run(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	_, _, sbmLow := rl.ModeShares()
	_, _, sbmHigh := rh.ModeShares()
	if sbmLow <= sbmHigh {
		t.Errorf("lower promotion threshold should raise SBM share: %f vs %f", sbmLow, sbmHigh)
	}
	if sbmHigh != 0 {
		t.Errorf("unreachable threshold still promoted (%f)", sbmHigh)
	}
}
