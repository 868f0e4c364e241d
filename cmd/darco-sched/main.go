// Command darco-sched runs the DARCO fleet coordinator: an HTTP daemon
// that accepts the same campaign submissions as darco-served, shards
// them across a pool of darco-served workers, and merges the gathered
// results into exports byte-identical to a single-node run.
//
// Usage:
//
//	darco-sched -addr :9090 -worker http://node1:8080 -worker http://node2:8080
//	darco-sched -addr :9090 -retries 6 -probe 2s
//
// Quickstart against a running coordinator:
//
//	curl -s localhost:9090/api/v1/jobs -d '{"suite":{"scale":0.1}}'
//	curl -s localhost:9090/api/v1/jobs/job-1
//	curl -N localhost:9090/api/v1/jobs/job-1/events
//	curl -s localhost:9090/api/v1/jobs/job-1/export.csv
//	curl -s localhost:9090/api/v1/jobs/job-1/trace
//	curl -s localhost:9090/api/v1/workers
//
// Workers can also self-register at runtime:
//
//	curl -s localhost:9090/api/v1/workers -d '{"url":"http://node3:8080"}'
//
// Worker death mid-campaign is survived: the coordinator re-dispatches
// only the scenarios it has not yet gathered to the remaining workers,
// with capped exponential backoff. If the pool is exhausted the job
// ends in the terminal "degraded" state with the never-run scenarios
// marked as errors in its exports.
//
// With -data, the coordinator's own death is survived too: every
// federated job's lifecycle — submission, shard plan, placement
// leases, gathered rows — is journaled to the durable store, and a
// restarted coordinator re-adopts the still-running worker-side shard
// jobs by name instead of re-dispatching them, so federated exports
// stay byte-identical across the crash. -fsync picks the journal
// durability policy.
//
//	darco-sched -addr :9090 -data /var/lib/darco-sched -worker http://node1:8080
//
// A warm standby points -standby at the same data directory: it waits
// on the store's flock lease (which the kernel releases the instant
// the primary dies, SIGKILL included), then recovers and serves
// exactly like a restart. One flag, one lease, no consensus protocol.
//
//	darco-sched -addr :9091 -data /var/lib/darco-sched -standby -worker http://node1:8080
//
// -pprof mounts Go's net/http/pprof profiling handlers under
// /debug/pprof/ on the same listener (off by default: the handlers
// expose goroutine dumps and CPU profiles, so enable them only where
// the listener is trusted).
//
// SIGINT/SIGTERM shut the coordinator down gracefully: submissions are
// rejected, running federated jobs (and their worker-side shard jobs)
// are cancelled and journaled terminal, queued jobs are left journaled
// for the next start to re-queue, and — once the runners drain
// (bounded by -grace) — a clean-shutdown marker is journaled.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	darco "darco"
	"darco/internal/daemon"
	"darco/sched"
	"darco/store"
)

// workerList collects repeatable -worker flags.
type workerList []string

func (l *workerList) String() string { return fmt.Sprint([]string(*l)) }
func (l *workerList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var workers workerList
	var (
		addr    = flag.String("addr", ":9090", "listen address")
		jobs    = flag.Int("jobs", 1, "concurrent federated campaigns")
		queue   = flag.Int("queue", 16, "job queue capacity (waiting jobs beyond it get 429)")
		maxScen = flag.Int("max-scenarios", 0, "max scenarios per submission (0 = unlimited)")
		shards  = flag.Int("max-shards", 0, "max shards per job (0 = one per healthy worker)")
		retries = flag.Int("retries", 4, "fruitless placement attempts per shard before the job degrades")
		probe   = flag.Duration("probe", 5*time.Second, "worker health-probe interval")
		grace   = flag.Duration("grace", 30*time.Second, "graceful-shutdown budget")
		data    = flag.String("data", "", "durable store directory (empty = in-memory only)")
		fsync   = flag.String("fsync", "lifecycle", "journal fsync policy with -data: lifecycle, always or none")
		standby = flag.Bool("standby", false, "with -data: wait for the directory's flock lease instead of failing when another coordinator holds it, then take over")
		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		version = flag.Bool("version", false, "print the version and exit")
	)
	flag.Var(&workers, "worker", "worker base URL (repeatable), e.g. http://node1:8080")
	flag.Parse()
	if *version {
		fmt.Println("darco-sched", darco.Version)
		return
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("daemon", "darco-sched")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	var st *store.Store
	var sm *store.Metrics
	if *data != "" {
		var err error
		if st, sm, err = daemon.OpenStore(*data, *fsync, *standby, logger); err != nil {
			fatal("store", "err", err)
		}
		defer st.Close()
	} else if *standby {
		fatal("-standby requires -data")
	}

	coord, err := sched.New(sched.Options{
		Workers:       workers,
		Jobs:          *jobs,
		QueueCapacity: *queue,
		MaxScenarios:  *maxScen,
		MaxShards:     *shards,
		ShardRetries:  *retries,
		ProbeInterval: *probe,
		Store:         st,
		StoreMetrics:  sm,
		Log:           logger,
	})
	if err != nil {
		fatal("coordinator init failed", "err", err)
	}
	if err := daemon.Serve(logger, *addr, *pprofOn, coord, coord.Shutdown, *grace, "workers_registered", len(workers)); err != nil {
		fatal("daemon", "err", err)
	}
}
