package sched

import "darco/obs"

// schedMetrics are the families only a coordinator has, beside the job
// families the kernel keeps on the same registry: the recovery
// counters, the per-worker placement/gather/retry/rejection series
// keyed by worker URL (recomputed from the pool on every scrape), and
// the placement-attempts histogram the scheduling path feeds.
type schedMetrics struct {
	recovResumed      *obs.Counter
	recovRequeued     *obs.Counter
	recovReadopted    *obs.Counter
	recovBackfilled   *obs.Counter
	recovRedispatched *obs.Counter
	recovSalvage      *obs.Counter

	workerUp         *obs.GaugeVec
	workerActive     *obs.GaugeVec
	workerPlaced     *obs.CounterVec
	workerRows       *obs.CounterVec
	workerRetries    *obs.CounterVec
	workerRejections *obs.CounterVec
	// workerSeen remembers every worker URL that ever had series, so a
	// deregistered worker's gauges drop to 0 instead of freezing at
	// their last value (counter series keep their totals, as Prometheus
	// counters should).
	workerSeen map[string]bool

	placementAttempts *obs.Histogram
}

// initMetrics registers the coordinator's families on the kernel's
// registry.
func (c *Coordinator) initMetrics() {
	r := c.k.Registry()
	m := &schedMetrics{workerSeen: make(map[string]bool)}

	m.recovResumed = r.Counter("darco_sched_recovery_resumed_jobs", "Mid-run federated jobs resumed by the last restart.")
	m.recovRequeued = r.Counter("darco_sched_recovery_requeued_jobs", "Queued federated jobs re-queued by the last restart.")
	m.recovReadopted = r.Counter("darco_sched_recovery_readopted_shards", "Worker-side shard jobs re-adopted instead of re-dispatched.")
	m.recovBackfilled = r.Counter("darco_sched_recovery_backfilled_rows", "Scenario rows recovered through shard re-adoption.")
	m.recovRedispatched = r.Counter("darco_sched_recovery_redispatched_shards", "Restored shards whose placement lease was dead and fell back to re-dispatch.")
	m.recovSalvage = r.Counter("darco_sched_recovery_salvage_discarded_bytes", "Journal bytes dropped by corruption salvage at the last open.")

	m.workerUp = r.GaugeVec("darco_sched_worker_up", "Worker health from the last probe.", "worker")
	m.workerActive = r.GaugeVec("darco_sched_worker_active_shards", "Shards currently placed on the worker.", "worker")
	m.workerPlaced = r.CounterVec("darco_sched_worker_shards_placed_total", "Shard submissions the worker accepted.", "worker")
	m.workerRows = r.CounterVec("darco_sched_worker_rows_gathered_total", "Scenario rows gathered from the worker.", "worker")
	m.workerRetries = r.CounterVec("darco_sched_worker_retries_total", "Failed shard attempts on the worker.", "worker")
	m.workerRejections = r.CounterVec("darco_sched_worker_rejections_total", "Shard submissions the worker bounced with 429.", "worker")

	m.placementAttempts = r.Histogram("darco_sched_shard_placement_attempts",
		"Placement attempts each shard needed before its gather completed.",
		obs.LinearBuckets(1, 1, 8))

	r.OnScrape(func() { c.scrape(m) })
	c.metrics = m
}

// scrape recomputes the recovery and per-worker families. Runs under
// the obs.Registry lock; it takes only pool locks, which never call
// back into the metrics registry.
func (c *Coordinator) scrape(m *schedMetrics) {
	rec := c.k.Recovered()
	m.recovResumed.Set(uint64(rec.Resumed))
	m.recovRequeued.Set(uint64(rec.Requeued))
	m.recovReadopted.Set(c.recov.readoptedShards.Load())
	m.recovBackfilled.Set(c.recov.backfilledRows.Load())
	m.recovRedispatched.Set(c.recov.redispatched.Load())
	m.recovSalvage.Set(c.recov.salvageDiscarded.Load())

	current := make(map[string]bool)
	for _, wk := range c.pool.list() {
		wi := wk.info()
		current[wi.URL] = true
		m.workerSeen[wi.URL] = true
		up := 0.0
		if wi.Healthy {
			up = 1
		}
		m.workerUp.With(wi.URL).Set(up)
		m.workerActive.With(wi.URL).Set(float64(wi.ActiveShards))
		m.workerPlaced.With(wi.URL).Set(wi.ShardsPlaced)
		m.workerRows.With(wi.URL).Set(wi.RowsGathered)
		m.workerRetries.With(wi.URL).Set(wi.Retries)
		m.workerRejections.With(wi.URL).Set(wi.Rejections)
	}
	for url := range m.workerSeen {
		if !current[url] {
			m.workerUp.With(url).Set(0)
			m.workerActive.With(url).Set(0)
		}
	}
}
