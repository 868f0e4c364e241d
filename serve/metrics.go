package serve

import "darco/obs"

// serverMetrics are the families only a worker daemon has, beside the
// job families the kernel keeps on the same registry: the scenario-wall
// histogram its runs feed, and the engine hot-path counters of
// obs-enabled jobs, mirrored from the shared instance on every scrape.
type serverMetrics struct {
	scenarioWall *obs.Histogram

	// engCtrs is the daemon's shared engine profiling instance: jobs
	// whose submission sets engine.obs attach it, and the scrape hook
	// mirrors its counters into the darco_engine_* families.
	engCtrs *obs.EngineCounters
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		scenarioWall: obs.NewHistogram(obs.ExpBuckets(0.01, 4, 10)),
		engCtrs:      &obs.EngineCounters{},
	}
}

// register puts the families on the kernel's registry.
func (m *serverMetrics) register(r *obs.Registry, workers int) {
	r.Gauge("darco_workers", "Concurrent campaign workers.").Set(float64(workers))
	r.RegisterHistogram("darco_scenario_wall_seconds",
		"Per-scenario wall time, generation through final drain.", m.scenarioWall)

	decodeHits := r.Counter("darco_engine_decode_cache_hits_total", "Decode-cache hits across obs-enabled jobs.")
	decodeMiss := r.Counter("darco_engine_decode_cache_misses_total", "Decode-cache misses across obs-enabled jobs.")
	blockHits := r.Counter("darco_engine_block_cache_hits_total", "Block-cache dispatch hits across obs-enabled jobs.")
	blockMiss := r.Counter("darco_engine_block_cache_misses_total", "Block-cache dispatch misses across obs-enabled jobs.")
	codeFlushes := r.Counter("darco_engine_code_cache_flushes_total", "Code-cache insertions that forced a full flush.")
	r.OnScrape(func() {
		c := m.engCtrs.Snapshot()
		decodeHits.Set(c.DecodeHits)
		decodeMiss.Set(c.DecodeMisses)
		blockHits.Set(c.BlockHits)
		blockMiss.Set(c.BlockMisses)
		codeFlushes.Set(c.CodeFlushes)
	})
}
