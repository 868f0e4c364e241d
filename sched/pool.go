package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"darco/serve"
)

// worker is one pool member: a darco-served daemon the coordinator
// places shards on. Identity (URL) is immutable; everything observed
// about the worker — health, the id/version its /healthz reports,
// queue depth, and the coordinator-side placement counters — is
// guarded by mu.
type worker struct {
	url string // normalized base URL, no trailing slash

	mu        sync.Mutex
	id        string // worker_id from /healthz
	version   string
	healthy   bool
	lastErr   string
	lastProbe time.Time
	depth     int // queue_depth from the last probe

	active    int    // shards currently placed (or being placed) here
	placed    uint64 // shard submissions accepted (202)
	gathered  uint64 // scenario rows gathered from this worker
	retries   uint64 // shard attempts on this worker that failed
	rejected  uint64 // shard submissions bounced with 429
	probeFail uint64
}

// WorkerInfo is the wire representation of a pool member, served by
// GET /api/v1/workers.
type WorkerInfo struct {
	URL          string    `json:"url"`
	ID           string    `json:"worker_id,omitempty"`
	Version      string    `json:"version,omitempty"`
	Healthy      bool      `json:"healthy"`
	LastError    string    `json:"last_error,omitempty"`
	LastProbe    time.Time `json:"last_probe,omitempty"`
	QueueDepth   int       `json:"queue_depth"`
	ActiveShards int       `json:"active_shards"`
	ShardsPlaced uint64    `json:"shards_placed"`
	RowsGathered uint64    `json:"rows_gathered"`
	Retries      uint64    `json:"retries"`
	Rejections   uint64    `json:"rejections"`
}

func (w *worker) info() WorkerInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerInfo{
		URL:          w.url,
		ID:           w.id,
		Version:      w.version,
		Healthy:      w.healthy,
		LastError:    w.lastErr,
		LastProbe:    w.lastProbe,
		QueueDepth:   w.depth,
		ActiveShards: w.active,
		ShardsPlaced: w.placed,
		RowsGathered: w.gathered,
		Retries:      w.retries,
		Rejections:   w.rejected,
	}
}

// markUnhealthy records a failed interaction; the worker stays out of
// placement until a probe succeeds again.
func (w *worker) markUnhealthy(err error) {
	w.mu.Lock()
	w.healthy = false
	w.lastErr = err.Error()
	w.mu.Unlock()
}

func (w *worker) release() {
	w.mu.Lock()
	w.active--
	w.mu.Unlock()
}

// reserve claims a placement slot outside pick (adoption re-attaches
// to a specific worker rather than choosing one); released like any
// pick.
func (w *worker) reserve() {
	w.mu.Lock()
	w.active++
	w.mu.Unlock()
}

func (w *worker) notePlaced() {
	w.mu.Lock()
	w.placed++
	w.mu.Unlock()
}

func (w *worker) noteRejected() {
	w.mu.Lock()
	w.rejected++
	w.mu.Unlock()
}

func (w *worker) noteRetry() {
	w.mu.Lock()
	w.retries++
	w.mu.Unlock()
}

func (w *worker) noteRows(n int) {
	w.mu.Lock()
	w.gathered += uint64(n)
	w.mu.Unlock()
}

// pool is the registered worker set, in registration order. Static
// -worker members are added at New; POST /api/v1/workers adds more at
// runtime.
type pool struct {
	mu      sync.Mutex
	workers []*worker
	byURL   map[string]*worker
}

func newPool() *pool {
	return &pool{byURL: make(map[string]*worker)}
}

// normalizeWorkerURL validates and canonicalizes a worker base URL.
func normalizeWorkerURL(raw string) (string, error) {
	u, err := url.Parse(strings.TrimRight(raw, "/"))
	if err != nil {
		return "", fmt.Errorf("worker url %q: %v", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("worker url %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("worker url %q: missing host", raw)
	}
	return u.String(), nil
}

// add registers a worker URL, returning the (possibly pre-existing)
// entry and whether it was new.
func (p *pool) add(rawURL string) (*worker, bool, error) {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return nil, false, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if w, ok := p.byURL[u]; ok {
		return w, false, nil
	}
	w := &worker{url: u}
	p.workers = append(p.workers, w)
	p.byURL[u] = w
	return w, true, nil
}

// remove deregisters a worker by worker_id (from its /healthz), exact
// URL, or URL host:port, returning the removed member. In-flight
// gathers against it finish on their own references; it is simply
// never picked again.
func (p *pool) remove(key string) (*worker, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, w := range p.workers {
		w.mu.Lock()
		id := w.id
		w.mu.Unlock()
		u, _ := url.Parse(w.url)
		if key != w.url && (key == "" || key != id) && (u == nil || key != u.Host) {
			continue
		}
		p.workers = append(p.workers[:i], p.workers[i+1:]...)
		delete(p.byURL, w.url)
		return w, true
	}
	return nil, false
}

// ensure returns the pool member for rawURL, registering it first if
// needed — re-adoption must be able to gather from a worker the
// restarted coordinator was not configured with (e.g. one that had
// self-registered at runtime).
func (p *pool) ensure(rawURL string) (*worker, error) {
	w, _, err := p.add(rawURL)
	return w, err
}

// list snapshots the pool in registration order.
func (p *pool) list() []*worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*worker, len(p.workers))
	copy(out, p.workers)
	return out
}

func (p *pool) healthyCount() int {
	n := 0
	for _, w := range p.list() {
		w.mu.Lock()
		if w.healthy {
			n++
		}
		w.mu.Unlock()
	}
	return n
}

// pick reserves the least-loaded healthy worker (fewest active shards,
// then shallowest reported queue, then registration order), excluding
// except. The reservation (active++) is atomic with the choice so
// concurrent placements spread across the pool; callers must release()
// the worker when the attempt ends.
func (p *pool) pick(except *worker) *worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *worker
	bestActive, bestDepth := 0, 0
	for _, w := range p.workers {
		if w == except {
			continue
		}
		w.mu.Lock()
		healthy, active, depth := w.healthy, w.active, w.depth
		w.mu.Unlock()
		if !healthy {
			continue
		}
		if best == nil || active < bestActive || (active == bestActive && depth < bestDepth) {
			best, bestActive, bestDepth = w, active, depth
		}
	}
	if best != nil {
		best.mu.Lock()
		best.active++
		best.mu.Unlock()
	}
	return best
}

// probe refreshes one worker's health from its /healthz.
func (c *Coordinator) probe(ctx context.Context, w *worker) bool {
	ctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		w.markUnhealthy(err)
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		w.mu.Lock()
		w.healthy = false
		w.lastErr = err.Error()
		w.lastProbe = time.Now()
		w.probeFail++
		w.mu.Unlock()
		return false
	}
	defer resp.Body.Close()
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || resp.StatusCode != http.StatusOK || h.Status != "ok" {
		if err == nil {
			err = fmt.Errorf("healthz: status %d (%q)", resp.StatusCode, h.Status)
		}
		w.markUnhealthy(err)
		return false
	}
	w.mu.Lock()
	wasHealthy := w.healthy
	w.healthy = true
	w.lastErr = ""
	w.lastProbe = time.Now()
	w.id = h.WorkerID
	w.version = h.Version
	w.depth = h.QueueDepth
	w.mu.Unlock()
	if !wasHealthy {
		c.log.Info("worker healthy", "worker", w.url, "worker_id", h.WorkerID, "version", h.Version)
	}
	return true
}

// probeAll refreshes every pool member and reports how many are
// healthy afterwards.
func (c *Coordinator) probeAll(ctx context.Context) int {
	healthy := 0
	for _, w := range c.pool.list() {
		if c.probe(ctx, w) {
			healthy++
		}
	}
	return healthy
}

// prober is the background health loop: every ProbeInterval it
// refreshes the pool so placement sees worker deaths and recoveries
// without waiting for a shard to fail.
func (c *Coordinator) prober() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-ticker.C:
			c.probeAll(c.baseCtx)
		}
	}
}
