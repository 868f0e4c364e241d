package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric the benchmark emits. The table below is
// the program's side of BENCHMARK.json: smoke_test.go fails when the two
// disagree, so a metric cannot be added to one and forgotten in the other.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the median it may worsen
	exact  bool    // a count the program makes; must repeat bit-for-bit
}

// endToEnd is what a user of the system sees. Every workload emits all of
// them in the untraced pass.
var endToEnd = []metricDef{
	{name: "guest_mips", unit: "MIPS", better: "higher", bound: 0.25},
	{name: "bare_campaign_s", unit: "s", better: "lower", bound: 0.25},
	{name: "served_job_s", unit: "s", better: "lower", bound: 0.25},
	{name: "federated_job_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_round", unit: "MB", better: "lower", bound: 0.12},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is the attribution set, named module.metric. Every workload
// emits all of them in the traced pass; README.md says which end-to-end
// metric each one should move, and on which workload.
var perLayer = []metricDef{
	{name: "workload.generate_ms", unit: "ms", better: "lower"},
	{name: "guest.decode_ns_per_insn", unit: "ns", better: "lower"},
	{name: "guestvm.run_mips", unit: "MIPS", better: "higher"},
	{name: "guestvm.share_of_wall", unit: "%", better: "lower"},
	{name: "tol.run_mips", unit: "MIPS", better: "higher"},
	{name: "tol.share_of_wall", unit: "%", better: "lower"},
	{name: "tol.interp_mips", unit: "MIPS", better: "higher"},
	{name: "tol.bb_translate_us_per_block", unit: "us", better: "lower"},
	{name: "tol.sb_translate_us_per_block", unit: "us", better: "lower"},
	{name: "tol.translate_share_of_wall", unit: "%", better: "lower"},
	{name: "tol.dispatches", unit: "count", better: "lower", exact: true},
	{name: "tol.bb_translations", unit: "count", better: "lower", exact: true},
	{name: "tol.sb_translations", unit: "count", better: "lower", exact: true},
	{name: "tol.assert_rebuilds", unit: "count", better: "lower", exact: true},
	{name: "tol.spec_rebuilds", unit: "count", better: "lower", exact: true},
	{name: "tol.guest_insns_im", unit: "count", better: "lower", exact: true},
	{name: "tol.guest_insns_bbm", unit: "count", better: "lower", exact: true},
	{name: "tol.guest_insns_sbm", unit: "count", better: "higher", exact: true},
	{name: "tol.overhead_share", unit: "%", better: "lower", exact: true},
	{name: "tol.decode_hit_rate", unit: "%", better: "higher", exact: true},
	{name: "tol.block_hit_rate", unit: "%", better: "higher", exact: true},
	{name: "tol.code_flushes", unit: "count", better: "lower", exact: true},
	{name: "ir.optimize_us_per_region", unit: "us", better: "lower"},
	{name: "ir.ddg_sched_us_per_region", unit: "us", better: "lower"},
	{name: "ir.regalloc_us_per_region", unit: "us", better: "lower"},
	{name: "ir.codegen_us_per_region", unit: "us", better: "lower"},
	{name: "ir.insts_per_region", unit: "count", better: "lower", exact: true},
	{name: "ir.host_insts_per_region", unit: "count", better: "lower", exact: true},
	{name: "codecache.blocks_resident", unit: "count", better: "lower", exact: true},
	{name: "codecache.host_insts_used", unit: "count", better: "lower", exact: true},
	{name: "codecache.lookup_ns", unit: "ns", better: "lower"},
	{name: "hostvm.steady_host_mips", unit: "MIPS", better: "higher"},
	{name: "hostvm.host_per_guest_sbm", unit: "ratio", better: "lower", exact: true},
	{name: "hostvm.retire_hook_ns_per_insn", unit: "ns", better: "lower"},
	{name: "controller.validate_us", unit: "us", better: "lower"},
	{name: "controller.syscall_syncs", unit: "count", better: "lower", exact: true},
	{name: "controller.validations", unit: "count", better: "lower", exact: true},
	{name: "controller.page_transfers", unit: "count", better: "lower", exact: true},
	{name: "controller.residual_ms", unit: "ms", better: "lower"},
	{name: "timing.consume_ns_per_event", unit: "ns", better: "lower"},
	{name: "timing.pipeline_ns_per_event", unit: "ns", better: "lower"},
	{name: "timing.share_of_wall", unit: "%", better: "lower"},
	{name: "timing.events", unit: "count", better: "lower", exact: true},
	{name: "timing.cycles", unit: "count", better: "lower", exact: true},
	{name: "timing.ipc", unit: "ratio", better: "higher", exact: true},
	{name: "timing.l1d_miss_rate", unit: "%", better: "lower", exact: true},
	{name: "timing.bpred_miss_rate", unit: "%", better: "lower", exact: true},
	{name: "darco.session_new_us", unit: "us", better: "lower"},
	{name: "darco.round_ms_p50", unit: "ms", better: "lower"},
	{name: "darco.round_ms_p80", unit: "ms", better: "lower"},
	{name: "darco.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "darco.bare_campaign_ms", unit: "ms", better: "lower"},
	{name: "darco.campaign_parallel_efficiency", unit: "ratio", better: "higher"},
	{name: "telemetry.stream_overhead_x", unit: "x", better: "lower"},
	{name: "export.csv_us_per_row", unit: "us", better: "lower"},
	{name: "export.json_us_per_row", unit: "us", better: "lower"},
	{name: "store.append_us_p50", unit: "us", better: "lower"},
	{name: "store.append_nosync_us_p50", unit: "us", better: "lower"},
	{name: "store.compact_ms", unit: "ms", better: "lower"},
	{name: "store.open_recover_ms", unit: "ms", better: "lower"},
	{name: "store.snap_bytes_per_job", unit: "bytes", better: "lower", exact: true},
	{name: "serve.submit_ack_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "serve.first_row_ms", unit: "ms", better: "lower"},
	{name: "serve.export_fetch_ms", unit: "ms", better: "lower"},
	{name: "serve.event_frames", unit: "count", better: "lower", exact: true},
	{name: "serve.overhead_x", unit: "x", better: "lower"},
	{name: "serve.overhead_notelemetry_x", unit: "x", better: "lower"},
	{name: "sched.overhead_x", unit: "x", better: "lower"},
	{name: "sched.shards", unit: "count", better: "lower", exact: true},
	{name: "sched.http_requests_per_job", unit: "count", better: "lower", exact: true},
	{name: "sched.gather_lag_ms", unit: "ms", better: "lower"},
	{name: "obs.trace_overhead_x", unit: "x", better: "lower"},
	{name: "benchmark.host_factor_x", unit: "x", better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, exactly as the benchmark
// contract spells it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect checks that vals holds exactly the metrics of defs and pairs
// each value with its declared unit.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return out, nil
}

// percentile is the nearest-rank percentile of xs (0 on an empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
