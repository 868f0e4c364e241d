package serve

import (
	"net/http"

	darco "darco"
	"darco/internal/jobs"
	"darco/internal/workload"
)

// ProfileInfo describes one submittable workload.
type ProfileInfo struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	var out []ProfileInfo
	for _, p := range workload.Suites() {
		out = append(out, ProfileInfo{Name: p.Name, Suite: p.Suite})
	}
	jobs.WriteJSON(w, http.StatusOK, out)
}

// Health is the /healthz payload. Version and WorkerID identify the
// build and the pool member — the sched coordinator's health probes
// read them to label workers, and Status is what its placement checks.
type Health struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	WorkerID      string  `json:"worker_id"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Jobs          int     `json:"jobs"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	jobs.WriteJSON(w, http.StatusOK, Health{
		Status:        "ok",
		Version:       darco.Version,
		WorkerID:      s.opts.WorkerID,
		UptimeSeconds: s.k.Uptime().Seconds(),
		Workers:       s.k.Workers(),
		QueueDepth:    s.k.QueueDepth(),
		QueueCapacity: s.k.QueueCapacity(),
		Jobs:          s.k.JobCount(),
	})
}
