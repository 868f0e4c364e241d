package sched

import (
	"fmt"

	"darco/internal/jobs"
	"darco/store"
)

// Resume is the coordinator's answer for a history journaled running
// when it died: the job is picked up again. The kernel restores the
// journaled rows; here the shard plan comes back from the journal with
// each unfinished shard carrying its last placement lease, which
// runShardAttempts tries to re-adopt (see adoptShard) before falling
// back to the ordinary missing-scenario re-dispatch path. A crash that
// beat the shard-plan record leaves the job to plan afresh like a first
// run. Only a submission that no longer validates cannot be rebuilt:
// without its roster there is no shard mapping, and the job lands
// interrupted with every journaled row preserved.
//
// The clean-shutdown marker is consumed here purely as a cross-check: a
// graceful stop journals a terminal record for everything it cancels
// and leaves queued jobs queued, so a "running" history after a marker
// means the marker's guarantee was violated — logged loudly, then
// resumed anyway, which is the safe direction.
func (c runner) Resume(h *store.JobHistory) (*jobs.Plan, error) {
	if c.cleanStop {
		c.log.Warn("job journaled running despite a clean-shutdown marker; resuming it anyway", "job_id", h.ID)
	}
	plan, err := c.Validate(h.Request, true)
	if err != nil {
		return nil, fmt.Errorf("coordinator restarted and could not rebuild the job: %v", err)
	}
	f := plan.Spec.(*fed)
	for si, spec := range h.ShardPlan {
		indices := make([]int, spec.Count)
		for k := range indices {
			indices[k] = spec.Start + k
		}
		sh := &shard{idx: si, indices: indices}
		if pl, ok := h.Placements[si]; ok {
			sh.attempts = pl.Attempt
			sh.workerURL, sh.workerJob = pl.Worker, pl.WorkerJob
			// The journaled span id keeps the re-adopted shard (and the
			// worker-side job spans already parented under it) attached
			// to the same subtree of the federated trace.
			sh.span = pl.Span
			if _, done := h.ShardsDone[si]; !done {
				lease := pl
				sh.adopt = &lease
			}
		}
		f.shards = append(f.shards, sh)
	}
	c.log.Info("job resuming mid-run", "job_id", h.ID, "rows_journaled", len(h.Rows), "scenarios", h.Scenarios,
		"shards_terminal", len(h.ShardsDone), "shards", len(h.ShardPlan))
	return plan, nil
}
