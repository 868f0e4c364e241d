package obs

import "sync/atomic"

// EngineCounters are the engine's hot-path profiling counters,
// attached with darco.WithObsCounters. Every field is a plain atomic:
// the enabled cost is one predictable nil-check plus one uncontended
// atomic add on the instrumented paths, and the disabled cost is the
// nil-check alone (pinned by BenchmarkTableSpeedFunctional against the
// BENCH_4 snapshot).
//
// One EngineCounters may be shared across engines and sessions — the
// serve daemon attaches a single instance to every obs-enabled job so
// /metrics reads fleet-wide totals — or allocated per run, as
// darco-bench -obs does for a per-scenario column.
type EngineCounters struct {
	// Decode cache: one hit is one guest block the TOL's front end
	// served from its decoded-block cache (to the interpreter, the BB
	// translator or superblock formation); one miss is one block it
	// decoded from guest memory instead.
	DecodeHits   atomic.Uint64
	DecodeMisses atomic.Uint64

	// Block cache: translated-region lookups in the TOL dispatch loop.
	// A miss falls back to interpretation (and eventually translation).
	BlockHits   atomic.Uint64
	BlockMisses atomic.Uint64

	// Code cache flushes: capacity evictions that drop every
	// translation at once (the paper's flush-and-refill discipline).
	CodeFlushes atomic.Uint64
}

// EngineCountersSnapshot is a plain copy of the counter values, the
// form Result.Obs carries and darco-bench prints.
type EngineCountersSnapshot struct {
	DecodeHits   uint64 `json:"decode_hits"`
	DecodeMisses uint64 `json:"decode_misses"`
	BlockHits    uint64 `json:"block_hits"`
	BlockMisses  uint64 `json:"block_misses"`
	CodeFlushes  uint64 `json:"code_flushes"`
}

// Snapshot reads the counters. Values are individually atomic, not a
// consistent cut — fine for monitoring, meaningless to diff mid-run.
func (c *EngineCounters) Snapshot() EngineCountersSnapshot {
	return EngineCountersSnapshot{
		DecodeHits:   c.DecodeHits.Load(),
		DecodeMisses: c.DecodeMisses.Load(),
		BlockHits:    c.BlockHits.Load(),
		BlockMisses:  c.BlockMisses.Load(),
		CodeFlushes:  c.CodeFlushes.Load(),
	}
}

// Delta is shorthand for c.Snapshot().Sub(prev): the counter movement
// since a previous snapshot. The repository benchmark brackets each
// measured round with Snapshot/Delta to attribute cache traffic to
// exactly that round even when the counters instance is shared across
// runs.
func (c *EngineCounters) Delta(prev EngineCountersSnapshot) EngineCountersSnapshot {
	return c.Snapshot().Sub(prev)
}

// Sub returns the delta s - prev, for per-phase attribution when one
// counters instance spans several runs.
func (s EngineCountersSnapshot) Sub(prev EngineCountersSnapshot) EngineCountersSnapshot {
	return EngineCountersSnapshot{
		DecodeHits:   s.DecodeHits - prev.DecodeHits,
		DecodeMisses: s.DecodeMisses - prev.DecodeMisses,
		BlockHits:    s.BlockHits - prev.BlockHits,
		BlockMisses:  s.BlockMisses - prev.BlockMisses,
		CodeFlushes:  s.CodeFlushes - prev.CodeFlushes,
	}
}

// DecodeHitRate is hits/(hits+misses), 0 when no lookups happened.
func (s EngineCountersSnapshot) DecodeHitRate() float64 {
	return rate(s.DecodeHits, s.DecodeMisses)
}

// BlockHitRate is hits/(hits+misses), 0 when no lookups happened.
func (s EngineCountersSnapshot) BlockHitRate() float64 {
	return rate(s.BlockHits, s.BlockMisses)
}

func rate(hit, miss uint64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}
