package power

import (
	"testing"

	"darco/internal/host"
	"darco/internal/hostvm"
	"darco/internal/timing"
)

func loadedCore(n int) *timing.Core {
	core := timing.New(timing.DefaultConfig())
	for i := 0; i < n; i++ {
		in := &host.Inst{Op: host.ADD, Rd: 16, Ra: 17, Rb: 18}
		core.Consume(hostvm.RetireEvent{Inst: in, PC: uint32(0x1000 + 4*(i%32))})
	}
	return core
}

// analyze reports on core as a session's snapshot does.
func analyze(m *Model, core *timing.Core) *Report {
	act := core.Activity()
	return m.Analyze(&core.Stats, &act)
}

func TestAnalyzeBasics(t *testing.T) {
	m := New(DefaultEnergies(), 1000)
	rep := analyze(m, loadedCore(10000))
	if rep.DynamicJ <= 0 || rep.StaticJ <= 0 || rep.TotalJ <= rep.DynamicJ {
		t.Errorf("energy accounting: %+v", rep)
	}
	if rep.AvgPowerW <= 0 || rep.Seconds <= 0 {
		t.Errorf("power: %+v", rep)
	}
	var sum float64
	for _, v := range rep.ByComponent {
		sum += v
	}
	if diff := sum - rep.DynamicJ; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("components (%g) do not sum to dynamic (%g)", sum, rep.DynamicJ)
	}
	if rep.String() == "" {
		t.Errorf("empty report string")
	}
}

func TestMoreWorkMoreEnergy(t *testing.T) {
	m := New(DefaultEnergies(), 1000)
	small := analyze(m, loadedCore(1000))
	big := analyze(m, loadedCore(10000))
	if big.DynamicJ <= small.DynamicJ {
		t.Errorf("10x work should cost more energy: %g vs %g", big.DynamicJ, small.DynamicJ)
	}
}

func TestFrequencyAffectsPowerNotEnergy(t *testing.T) {
	slow := analyze(New(DefaultEnergies(), 500), loadedCore(5000))
	fast := analyze(New(DefaultEnergies(), 2000), loadedCore(5000))
	if slow.DynamicJ != fast.DynamicJ {
		t.Errorf("dynamic energy should be frequency independent")
	}
	if fast.AvgPowerW <= slow.AvgPowerW {
		t.Errorf("higher frequency should raise average power")
	}
	// Leakage integrates over time: the slow run leaks more.
	if slow.StaticJ <= fast.StaticJ {
		t.Errorf("longer runtime should leak more: %g vs %g", slow.StaticJ, fast.StaticJ)
	}
}

func TestTOLEnergyCharged(t *testing.T) {
	core := loadedCore(1000)
	m := New(DefaultEnergies(), 1000)
	before := analyze(m, core).ByComponent["tol"]
	core.AddTOL(50_000)
	after := analyze(m, core).ByComponent["tol"]
	if after <= before {
		t.Errorf("TOL energy not charged: %g -> %g", before, after)
	}
}
