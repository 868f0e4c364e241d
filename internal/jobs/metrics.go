package jobs

import (
	"runtime"

	darco "darco"
	"darco/obs"
)

// kernelMetrics is the part of a daemon's metrics surface both daemons
// have: one obs.Registry behind GET /metrics, holding the job families
// under the daemon's prefix. They are recomputed from the job registry
// on every scrape, so they are correct however the jobs got there — live
// runs and restored history alike — and a restored daemon scrapes
// correctly from its first request. The daemon registers the families
// only it has on the same registry (Kernel.Registry).
type kernelMetrics struct {
	reg *obs.Registry

	jobsByState        *obs.GaugeVec
	jobsTotal          *obs.Counter
	scenariosTotal     *obs.Counter
	scenariosCompleted *obs.Counter
	scenariosFailed    *obs.Counter
	subscribers        *obs.Gauge
	queueDepth         *obs.Gauge
	queueCapacity      *obs.Gauge
	uptime             *obs.Gauge
	goroutines         *obs.Gauge
	queueWait          *obs.Histogram
}

func (k *Kernel) initMetrics() {
	r, p := obs.NewRegistry(), k.cfg.MetricPrefix
	m := &kernelMetrics{reg: r}
	m.jobsByState = r.GaugeVec(p+"_jobs", "Jobs by lifecycle state.", "state")
	for _, st := range States {
		m.jobsByState.With(string(st))
	}
	m.jobsTotal = r.Counter(p+"_jobs_total", "Jobs ever accepted (restored history included).")
	m.scenariosTotal = r.Counter(p+"_scenarios_total", "Scenarios enrolled across all jobs.")
	m.scenariosCompleted = r.Counter(p+"_scenarios_completed_total", "Scenario rows committed across all jobs.")
	m.scenariosFailed = r.Counter(p+"_scenarios_failed_total", "Committed rows carrying an error.")
	m.subscribers = r.Gauge(p+"_event_subscribers", "Open event-stream subscriptions.")
	m.queueDepth = r.Gauge(p+"_queue_depth", "Jobs waiting for a worker.")
	m.queueCapacity = r.Gauge(p+"_queue_capacity", "Job queue capacity.")
	m.uptime = r.Gauge(p+"_uptime_seconds", "Daemon uptime.")
	r.GaugeVec("darco_build_info", "Build identity; the value is always 1.", "version").
		With(darco.Version).Set(1)
	m.goroutines = r.Gauge("darco_goroutines", "Live goroutines in the daemon process.")
	m.queueWait = r.Histogram(p+"_job_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", obs.ExpBuckets(0.001, 4, 10))
	if sm := k.cfg.StoreMetrics; sm != nil {
		if sm.AppendSeconds != nil {
			r.RegisterHistogram("darco_store_append_seconds", "Durable-store record append latency.", sm.AppendSeconds)
		}
		if sm.FsyncSeconds != nil {
			r.RegisterHistogram("darco_store_fsync_seconds", "Durable-store journal fsync latency.", sm.FsyncSeconds)
		}
	}
	r.OnScrape(k.scrape)
	k.metrics = m
}

// scrape recomputes the job families from the live registry. Runs under
// the obs.Registry lock; it takes only the job and registry locks,
// neither of which ever calls back into the metrics registry.
func (k *Kernel) scrape() {
	m := k.metrics
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
	for _, st := range States {
		m.jobsByState.With(string(st)).Set(float64(byState[st]))
	}
	m.jobsTotal.Set(uint64(len(jobs)))
	m.scenariosTotal.Set(uint64(scenarios))
	m.scenariosCompleted.Set(uint64(completed))
	m.scenariosFailed.Set(uint64(failed))
	m.subscribers.Set(float64(subscribers))
	m.queueDepth.Set(float64(len(k.queue)))
	m.queueCapacity.Set(float64(k.cfg.QueueCapacity))
	m.uptime.Set(k.Uptime().Seconds())
	m.goroutines.Set(float64(runtime.NumGoroutine()))
}
