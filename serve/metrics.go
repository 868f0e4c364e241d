package serve

import "darco/obs"

// writeMetrics writes the families only a worker daemon has, after the
// kernel's job families: its worker count, the scenario-wall histogram
// its runs feed, and the engine hot-path counters of obs-enabled jobs,
// read from the daemon's shared instance.
func (s *runner) writeMetrics(w *obs.Writer, workers int) {
	w.Gauge("darco_workers", "Concurrent campaign workers.", float64(workers))
	w.Histogram("darco_scenario_wall_seconds", "Per-scenario wall time, generation through final drain.", s.scenarioWall)
	c := s.engCtrs.Snapshot()
	w.Counter("darco_engine_decode_cache_hits_total", "Decode-cache hits across obs-enabled jobs.", c.DecodeHits)
	w.Counter("darco_engine_decode_cache_misses_total", "Decode-cache misses across obs-enabled jobs.", c.DecodeMisses)
	w.Counter("darco_engine_block_cache_hits_total", "Block-cache dispatch hits across obs-enabled jobs.", c.BlockHits)
	w.Counter("darco_engine_block_cache_misses_total", "Block-cache dispatch misses across obs-enabled jobs.", c.BlockMisses)
	w.Counter("darco_engine_code_cache_flushes_total", "Code-cache insertions that forced a full flush.", c.CodeFlushes)
}
