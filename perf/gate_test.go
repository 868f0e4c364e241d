package perf

import (
	"strings"
	"testing"

	"darco/obs"
)

func gateSnap() *Snapshot {
	ctrs := obs.EngineCountersSnapshot{
		DecodeHits: 1000, DecodeMisses: 10,
		BlockHits: 500, BlockMisses: 5,
		CodeFlushes: 2,
	}
	return &Snapshot{
		Schema: SchemaVersion,
		Scale:  0.5,
		Benches: map[string]Bench{
			"Speed": {
				NsPerOp: 1e8, AllocsPerOp: 20000, BytesPerOp: 5e6,
				Metrics:  map[string]float64{"guest-MIPS": 12.5, "SBM%": 95.2},
				Counters: &ctrs,
			},
			SuiteCampaignBench: {
				NsPerOp: 2e9, AllocsPerOp: 1e6, BytesPerOp: 8e8,
			},
			"Fig": {
				Metrics:    map[string]float64{"cost-INT": 3.4},
				CostShared: SuiteCampaignBench,
			},
		},
	}
}

func TestGateIdenticalPasses(t *testing.T) {
	r := Gate(gateSnap(), gateSnap())
	if !r.Pass() || r.Failures != 0 {
		t.Fatalf("identical snapshots: %s", r.Format(true))
	}
}

func TestGateCounterDriftFails(t *testing.T) {
	cand := gateSnap()
	b := cand.Benches["Speed"]
	c := *b.Counters
	c.BlockMisses++
	b.Counters = &c
	cand.Benches["Speed"] = b
	r := Gate(gateSnap(), cand)
	if r.Pass() {
		t.Fatalf("deterministic counter drift passed:\n%s", r.Format(true))
	}
	if !strings.Contains(r.Format(false), "counters.block_misses") {
		t.Fatalf("failure does not name the drifted counter:\n%s", r.Format(false))
	}
}

func TestGateMetricDriftFails(t *testing.T) {
	cand := gateSnap()
	b := cand.Benches["Speed"]
	b.Metrics = map[string]float64{"guest-MIPS": 12.5, "SBM%": 95.3}
	cand.Benches["Speed"] = b
	if r := Gate(gateSnap(), cand); r.Pass() {
		t.Fatalf("Stats-derived metric drift passed:\n%s", r.Format(true))
	}
}

func TestGateWallDerivedMetricsIgnored(t *testing.T) {
	cand := gateSnap()
	b := cand.Benches["Speed"]
	b.Metrics = map[string]float64{"guest-MIPS": 9.1, "SBM%": 95.2}
	cand.Benches["Speed"] = b
	if r := Gate(gateSnap(), cand); !r.Pass() {
		t.Fatalf("MIPS drift is machine weather, must not fail:\n%s", r.Format(true))
	}
}

func TestGateAllocTolerance(t *testing.T) {
	grow := func(frac float64) *GateResult {
		cand := gateSnap()
		b := cand.Benches["Speed"]
		b.AllocsPerOp *= 1 + frac
		cand.Benches["Speed"] = b
		return Gate(gateSnap(), cand)
	}
	if r := grow(0.005); !r.Pass() {
		t.Fatalf("0.5%% alloc growth within the 1%% tolerance failed:\n%s", r.Format(true))
	}
	if r := grow(0.02); r.Pass() {
		t.Fatalf("2%% alloc growth passed the 1%% tolerance:\n%s", r.Format(true))
	}
	if r := grow(-0.10); !r.Pass() {
		t.Fatalf("alloc improvement must never fail:\n%s", r.Format(true))
	}
}

func TestGateIgnoresWallTime(t *testing.T) {
	// ns/op and bytes/op stay in the snapshot as data; across machines
	// they are drift, so the gate neither checks nor fails on them.
	cand := gateSnap()
	b := cand.Benches["Speed"]
	b.NsPerOp *= 2
	b.BytesPerOp *= 2
	cand.Benches["Speed"] = b
	r := Gate(gateSnap(), cand)
	if !r.Pass() {
		t.Fatalf("2x wall and bytes failed the gate:\n%s", r.Format(true))
	}
	for _, c := range r.Checks {
		if c.Signal == "ns_per_op" || c.Signal == "bytes_per_op" {
			t.Fatalf("wall/bytes check emitted: %+v", c)
		}
	}
}

// failsOn asserts that the gate fails with an exact check naming bench.
func failsOn(t *testing.T, r *GateResult, bench string) {
	t.Helper()
	if r.Pass() {
		t.Fatalf("gate passed:\n%s", r.Format(true))
	}
	for _, c := range r.Checks {
		if !c.OK && c.Bench == bench && c.Class == ClassExact {
			return
		}
	}
	t.Fatalf("no exact failure names %s:\n%s", bench, r.Format(false))
}

func TestGateDroppedCountersFail(t *testing.T) {
	// A candidate row without the counters its baseline row carries
	// would otherwise skip all five counter checks.
	cand := gateSnap()
	b := cand.Benches["Speed"]
	b.Counters = nil
	cand.Benches["Speed"] = b
	failsOn(t, Gate(gateSnap(), cand), "Speed")
}

func TestGateDroppedOwnCostFails(t *testing.T) {
	// The baseline row measured its own cost; a candidate row that
	// claims to share another's would otherwise skip the allocs/op
	// check, here hiding a 5000x growth.
	cand := gateSnap()
	b := cand.Benches["Speed"]
	b.CostShared = SuiteCampaignBench
	b.AllocsPerOp *= 5000
	cand.Benches["Speed"] = b
	failsOn(t, Gate(gateSnap(), cand), "Speed")
}

func TestGateSharedCostRowsSkipCostSignals(t *testing.T) {
	// The fig row shares the campaign's measurement; even wildly
	// different (stale) cost values on the candidate row must not
	// produce cost checks — only the campaign row is gated on cost.
	cand := gateSnap()
	b := cand.Benches["Fig"]
	b.NsPerOp, b.AllocsPerOp = 9e12, 9e12
	cand.Benches["Fig"] = b
	r := Gate(gateSnap(), cand)
	if !r.Pass() {
		t.Fatalf("shared-cost row was gated on cost:\n%s", r.Format(true))
	}
	for _, c := range r.Checks {
		if c.Bench == "Fig" && (c.Signal == "ns_per_op" || c.Signal == "allocs_per_op") {
			t.Fatalf("cost check emitted for shared row: %+v", c)
		}
	}
}

func TestGateScaleMismatchFails(t *testing.T) {
	cand := gateSnap()
	cand.Scale = 0.25
	r := Gate(gateSnap(), cand)
	if r.Pass() {
		t.Fatal("snapshots at different scales compared")
	}
	if len(r.Checks) != 1 || r.Checks[0].Signal != "scale" {
		t.Fatalf("scale mismatch should short-circuit: %+v", r.Checks)
	}
}

func TestGateMissingBenchFails(t *testing.T) {
	cand := gateSnap()
	delete(cand.Benches, "Speed")
	if r := Gate(gateSnap(), cand); r.Pass() {
		t.Fatal("coverage regression (missing bench) passed")
	}
	// New coverage on the candidate side is fine.
	cand = gateSnap()
	cand.Benches["Brand New"] = Bench{NsPerOp: 1}
	if r := Gate(gateSnap(), cand); !r.Pass() {
		t.Fatalf("new candidate-only bench failed the gate:\n%s", r.Format(true))
	}
}

// TestGateHeadVsCommittedBaseline is the in-repo version of the CI
// perf job: the latest two committed goldens gate cleanly against each
// other on deterministic signals... except where a real drift was
// committed. BENCH_3→BENCH_4 added a bench, which is new coverage and
// must pass in the forward direction.
func TestGateCommittedGoldens(t *testing.T) {
	b3, err := ReadSnapshot("../BENCH_3.json")
	if err != nil {
		t.Skipf("goldens unavailable: %v", err)
	}
	b4, err := ReadSnapshot("../BENCH_4.json")
	if err != nil {
		t.Skipf("goldens unavailable: %v", err)
	}
	r := Gate(b3, b4)
	// Schema-1 goldens carry no counters and their shared fig rows are
	// normalized, so only measured rows' metrics/allocs are compared.
	if !r.Pass() {
		t.Fatalf("BENCH_3 → BENCH_4 should gate clean:\n%s", r.Format(true))
	}
}
