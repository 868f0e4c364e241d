// Package daemon is what cmd/darco-served and cmd/darco-sched do
// identically around their job machinery: open the durable store their
// -data/-fsync flags name, and run listen → signal → drain jobs → close
// the listener.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"darco/obs"
	"darco/store"
)

// OpenStore opens the durable store in dir under the named -fsync
// policy, with the latency histograms the daemon exposes on /metrics.
// With standby set it waits for the directory's flock lease instead of
// failing when another daemon holds it — the kernel drops the lease the
// instant the holder dies, SIGKILL included — and SIGINT/SIGTERM abort
// the wait.
func OpenStore(dir, fsync string, standby bool, logger *slog.Logger) (*store.Store, *store.Metrics, error) {
	var policy store.SyncPolicy
	switch fsync {
	case "lifecycle":
		policy = store.SyncLifecycle
	case "always":
		policy = store.SyncAlways
	case "none":
		policy = store.SyncNone
	default:
		return nil, nil, fmt.Errorf("unknown -fsync policy %q (lifecycle, always or none)", fsync)
	}
	sm := &store.Metrics{
		AppendSeconds: obs.NewHistogram(obs.ExpBuckets(1e-6, 4, 10)),
		FsyncSeconds:  obs.NewHistogram(obs.ExpBuckets(1e-6, 4, 10)),
	}
	opts := store.Options{Sync: policy, Metrics: sm, Logf: func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...), "component", "store")
	}}
	var st *store.Store
	var err error
	if standby {
		waitCtx, waitStop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		logger.Info("standby: waiting for the lease", "dir", dir)
		st, err = store.OpenWait(waitCtx, dir, opts)
		waitStop()
	} else {
		st, err = store.Open(dir, opts)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("open store %s: %w", dir, err)
	}
	logger.Info("store recovered", "dir", dir, "recovery", st.Recovery().String())
	return st, sm, nil
}

// Serve listens on addr with h until SIGINT/SIGTERM, then shuts down
// within grace. The job machinery is drained first (shutdown):
// cancelling the jobs is what ends any open /events streams, and
// http.Server.Shutdown waits for exactly those connections; new
// submissions get 503 meanwhile. The caller's store outlives the drain,
// so the terminal records of what was cancelled reach the journal.
// pprofOn mounts net/http/pprof under /debug/pprof/ on the same
// listener; attrs join the "listening" log line.
func Serve(logger *slog.Logger, addr string, pprofOn bool, h http.Handler, shutdown func(context.Context) error, grace time.Duration, attrs ...any) error {
	hs := &http.Server{Addr: addr, Handler: withPprof(pprofOn, h)}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", append([]any{"addr", addr, "pprof", pprofOn}, attrs...)...)
		errc <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return fmt.Errorf("listen: %w", err)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "grace", grace.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := shutdown(shutCtx); err != nil {
		return fmt.Errorf("job shutdown: %w", err)
	}
	if err := hs.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("serve", "err", err)
	}
	logger.Info("bye")
	return nil
}

// withPprof wraps the daemon handler with Go's pprof endpoints when
// enabled. Explicit handler registrations on a private mux — importing
// net/http/pprof's DefaultServeMux side effects would mount the
// handlers even with the flag off.
func withPprof(enabled bool, h http.Handler) http.Handler {
	if !enabled {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}
