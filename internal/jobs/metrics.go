package jobs

import (
	"net/http"
	"runtime"

	darco "darco"
	"darco/obs"
)

// handleMetrics writes the daemon's /metrics at scrape time: the job
// families under the daemon's prefix, then the daemon's own
// (Config.Metrics). The job families are computed from the job registry
// in one pass, so they are correct however the jobs got there — live
// runs and restored history alike — and a restored daemon scrapes
// correctly from its first request.
func (k *Kernel) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	byState := make(map[JobState]int, len(States))
	var scenarios, completed, failed, subscribers int
	jobs := k.jobs.list()
	for _, j := range jobs {
		st := j.Status()
		byState[st.State]++
		scenarios += st.Scenarios
		completed += st.Completed
		failed += st.Failed
		subscribers += j.events.SubscriberCount()
	}
	states := make([]obs.Series, len(States))
	for i, st := range States {
		states[i] = obs.Series{Label: string(st), Value: float64(byState[st])}
	}

	var w obs.Writer
	p := k.cfg.MetricPrefix
	w.LabelledGauge(p+"_jobs", "Jobs by lifecycle state.", "state", states...)
	w.Counter(p+"_jobs_total", "Jobs ever accepted (restored history included).", uint64(len(jobs)))
	w.Counter(p+"_scenarios_total", "Scenarios enrolled across all jobs.", uint64(scenarios))
	w.Counter(p+"_scenarios_completed_total", "Scenario rows committed across all jobs.", uint64(completed))
	w.Counter(p+"_scenarios_failed_total", "Committed rows carrying an error.", uint64(failed))
	w.Gauge(p+"_event_subscribers", "Open event-stream subscriptions.", float64(subscribers))
	w.Gauge(p+"_queue_depth", "Jobs waiting for a worker.", float64(len(k.queue)))
	w.Gauge(p+"_queue_capacity", "Job queue capacity.", float64(k.cfg.QueueCapacity))
	w.LabelledGauge("darco_build_info", "Build identity; the value is always 1.", "version",
		obs.Series{Label: darco.Version, Value: 1})
	w.Gauge("darco_goroutines", "Live goroutines in the daemon process.", float64(runtime.NumGoroutine()))
	w.Histogram(p+"_job_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", k.queueWait)
	if sm := k.cfg.StoreMetrics; sm != nil {
		if sm.AppendSeconds != nil {
			w.Histogram("darco_store_append_seconds", "Durable-store record append latency.", sm.AppendSeconds)
		}
		if sm.FsyncSeconds != nil {
			w.Histogram("darco_store_fsync_seconds", "Durable-store journal fsync latency.", sm.FsyncSeconds)
		}
	}
	if k.cfg.Metrics != nil {
		k.cfg.Metrics(&w)
	}
	rw.Header().Set("Content-Type", obs.ContentType)
	rw.Write(w.Bytes())
}
