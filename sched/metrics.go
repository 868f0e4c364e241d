package sched

import "darco/obs"

// writeMetrics writes the families only a coordinator has, after the
// kernel's job families: what recovery did at the last start, and the
// placement-attempts histogram the scheduling path feeds. Per-worker
// numbers are served by GET /api/v1/workers.
func (c *Coordinator) writeMetrics(w *obs.Writer) {
	rec := c.k.Recovered()
	w.Counter("darco_sched_recovery_resumed_jobs", "Mid-run federated jobs resumed by the last restart.", uint64(rec.Resumed))
	w.Counter("darco_sched_recovery_requeued_jobs", "Queued federated jobs re-queued by the last restart.", uint64(rec.Requeued))
	w.Counter("darco_sched_recovery_readopted_shards", "Worker-side shard jobs re-adopted instead of re-dispatched.", c.recov.readoptedShards.Load())
	w.Counter("darco_sched_recovery_backfilled_rows", "Scenario rows recovered through shard re-adoption.", c.recov.backfilledRows.Load())
	w.Counter("darco_sched_recovery_redispatched_shards", "Restored shards whose placement lease was dead and fell back to re-dispatch.", c.recov.redispatched.Load())
	w.Counter("darco_sched_recovery_salvage_discarded_bytes", "Journal bytes dropped by corruption salvage at the last open.", c.recov.salvageDiscarded.Load())
	w.Histogram("darco_sched_shard_placement_attempts", "Placement attempts each shard needed before its gather completed.", c.placementAttempts)
}
