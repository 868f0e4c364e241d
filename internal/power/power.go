// Package power is the reproduction's stand-in for McPAT: an
// event-energy model for the co-designed host core. Like McPAT in
// DARCO, it is an optional consumer of the timing simulator's activity
// counts and does not affect the functionality of the rest of the
// infrastructure. Per-event energies are representative of a low-power
// in-order core at 28 nm and matter only in ratio, not absolutely.
package power

import (
	"fmt"
	"maps"
	"slices"

	"darco/internal/host"
	"darco/internal/timing"
)

// Energies is the per-event dynamic energy table, in picojoules.
type Energies struct {
	FetchPerInsn  float64
	DecodePerInsn float64
	IssuePerInsn  float64
	RegRead       float64
	RegWrite      float64

	SimpleOp  float64
	ComplexOp float64
	BranchOp  float64
	MemoryOp  float64

	L1IAccess float64
	L1DAccess float64
	L2Access  float64
	DRAMRead  float64
	TLBAccess float64
	BPLookup  float64

	// Static power in milliwatts per component group.
	LeakCoreMW  float64
	LeakCacheMW float64
}

// DefaultEnergies returns the calibrated table.
func DefaultEnergies() Energies {
	return Energies{
		FetchPerInsn:  3.1,
		DecodePerInsn: 1.8,
		IssuePerInsn:  2.2,
		RegRead:       0.9,
		RegWrite:      1.3,
		SimpleOp:      2.4,
		ComplexOp:     9.6,
		BranchOp:      1.9,
		MemoryOp:      3.0,
		L1IAccess:     8.2,
		L1DAccess:     10.4,
		L2Access:      38.0,
		DRAMRead:      640.0,
		TLBAccess:     1.1,
		BPLookup:      1.4,
		LeakCoreMW:    55.0,
		LeakCacheMW:   30.0,
	}
}

// Report is the power/energy breakdown for one simulation.
type Report struct {
	DynamicJ  float64 // total dynamic energy, joules
	StaticJ   float64 // leakage energy, joules
	TotalJ    float64
	AvgPowerW float64
	Seconds   float64

	ByComponent map[string]float64 // dynamic joules per component
}

// Model computes a power report from a finished timing simulation.
type Model struct {
	E       Energies
	FreqMHz float64
}

// New builds a model (freq 0 = 1000 MHz).
func New(e Energies, freqMHz float64) *Model {
	if freqMHz <= 0 {
		freqMHz = 1000
	}
	return &Model{E: e, FreqMHz: freqMHz}
}

// Analyze converts core activity into energy and power.
func (m *Model) Analyze(c *timing.Core) *Report {
	pj := func(n uint64, e float64) float64 { return float64(n) * e * 1e-12 }
	st := &c.Stats
	comp := make(map[string]float64)

	comp["frontend"] = pj(st.Insns, m.E.FetchPerInsn+m.E.DecodePerInsn) +
		pj(c.BP.Lookups, m.E.BPLookup) +
		pj(c.L1I.Accesses, m.E.L1IAccess)
	comp["issue+regfile"] = pj(st.Insns, m.E.IssuePerInsn) +
		pj(2*st.Insns, m.E.RegRead) + pj(st.Insns, m.E.RegWrite)
	comp["alu"] = pj(st.ClassCount[host.ClassSimple], m.E.SimpleOp) +
		pj(st.ClassCount[host.ClassComplex], m.E.ComplexOp) +
		pj(st.ClassCount[host.ClassBranch], m.E.BranchOp)
	comp["lsu"] = pj(st.ClassCount[host.ClassMemory], m.E.MemoryOp) +
		pj(c.L1D.Accesses, m.E.L1DAccess) +
		pj(c.TLBs.L1D.Accesses()+c.TLBs.L1I.Accesses()+c.TLBs.L2.Accesses(), m.E.TLBAccess)
	comp["l2"] = pj(c.L2.Accesses, m.E.L2Access)
	comp["dram"] = pj(c.L2.Misses, m.E.DRAMRead)
	// The TOL's own instructions burn core energy too.
	comp["tol"] = pj(st.TOLInsns, m.E.FetchPerInsn+m.E.DecodePerInsn+m.E.IssuePerInsn+m.E.SimpleOp)

	// Sum in sorted key order: float addition is order-sensitive and map
	// iteration is randomized, so ranging over comp made DynamicJ
	// nondeterministic across identical runs.
	var dyn float64
	for _, k := range slices.Sorted(maps.Keys(comp)) {
		dyn += comp[k]
	}
	secs := float64(st.Cycles) / (m.FreqMHz * 1e6)
	static := (m.E.LeakCoreMW + m.E.LeakCacheMW) * 1e-3 * secs
	total := dyn + static
	rep := &Report{
		DynamicJ:    dyn,
		StaticJ:     static,
		TotalJ:      total,
		Seconds:     secs,
		ByComponent: comp,
	}
	if secs > 0 {
		rep.AvgPowerW = total / secs
	}
	return rep
}

// String renders the report.
func (r *Report) String() string {
	return fmt.Sprintf("energy %.4g J (dyn %.4g + leak %.4g), avg power %.3f W over %.4g s",
		r.TotalJ, r.DynamicJ, r.StaticJ, r.AvgPowerW, r.Seconds)
}
