// Command darco-served runs the DARCO campaign daemon: a long-running
// HTTP service that accepts campaign submissions, executes them on a
// bounded job queue and worker pool, streams live telemetry, and
// serves results in every export format.
//
// Usage:
//
//	darco-served -addr :8080
//	darco-served -addr :8080 -workers 2 -queue 32 -max-par 8
//	darco-served -addr :8080 -data /var/lib/darco
//
// Quickstart against a running daemon:
//
//	curl -s localhost:8080/api/v1/jobs -d '{"suite":{"scale":0.1}}'
//	curl -s localhost:8080/api/v1/jobs/job-1
//	curl -N localhost:8080/api/v1/jobs/job-1/events
//	curl -s localhost:8080/api/v1/jobs/job-1/export.csv
//	curl -s localhost:8080/api/v1/jobs/job-1/trace
//	curl -s localhost:8080/metrics
//
// With -data, every job's lifecycle is journaled to the durable
// campaign store in that directory: restarting the daemon over the
// same directory restores finished jobs (exports byte-identical to
// the pre-restart daemon's), re-queues jobs that were still waiting,
// and marks jobs that were mid-run as interrupted with their partial
// results preserved. -fsync picks the journal durability policy.
//
// -pprof mounts Go's net/http/pprof profiling handlers under
// /debug/pprof/ on the same listener (off by default: the handlers
// expose goroutine dumps and CPU profiles, so enable them only where
// the listener is trusted).
//
// SIGINT/SIGTERM shut the daemon down gracefully: submissions are
// rejected, running campaigns are cancelled, jobs still queued stay
// journaled under -data for the next start to run (without -data they
// are cancelled), and the process exits once the workers drain (bounded
// by -grace).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	darco "darco"
	"darco/internal/daemon"
	"darco/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 1, "concurrent campaign jobs")
		queue   = flag.Int("queue", 16, "job queue capacity (waiting jobs beyond it get 429)")
		maxPar  = flag.Int("max-par", 0, "per-job scenario parallelism cap (0 = GOMAXPROCS)")
		maxScen = flag.Int("max-scenarios", 0, "max scenarios per submission (0 = unlimited)")
		data    = flag.String("data", "", "durable store directory (empty = in-memory only)")
		fsync   = flag.String("fsync", "lifecycle", "journal fsync policy with -data: lifecycle, always or none")
		grace   = flag.Duration("grace", 30*time.Second, "graceful-shutdown budget")
		id      = flag.String("worker-id", "", "worker id reported in /healthz (default <hostname>-<pid>)")
		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		version = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("darco-served", darco.Version)
		return
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("daemon", "darco-served")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	opts := serve.Options{
		Workers:        *workers,
		QueueCapacity:  *queue,
		MaxParallelism: *maxPar,
		MaxScenarios:   *maxScen,
		WorkerID:       *id,
		Log:            logger,
	}
	if *data != "" {
		st, sm, err := daemon.OpenStore(*data, *fsync, false, logger)
		if err != nil {
			fatal("store", "err", err)
		}
		defer st.Close()
		opts.Store, opts.StoreMetrics = st, sm
	}
	srv := serve.New(opts)
	if err := daemon.Serve(logger, *addr, *pprofOn, srv, srv.Shutdown, *grace, "workers", *workers, "queue", *queue); err != nil {
		fatal("daemon", "err", err)
	}
}
