package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"darco/sched"
	"darco/serve"
	"darco/store"
)

// tier is one daemon behind a loopback HTTP listener.
type tier struct {
	url      string
	ts       *httptest.Server
	shutdown func(context.Context) error
	st       *store.Store // nil for the store-less federation workers
	dir      string       // store directory, removed on close
}

func (t *tier) close() error {
	t.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := t.shutdown(ctx)
	// The store is the caller's: it closes after Shutdown so every terminal
	// record has landed in the journal first.
	if t.st != nil {
		err = errors.Join(err, t.st.Close())
	}
	if t.dir != "" {
		err = errors.Join(err, os.RemoveAll(t.dir))
	}
	return err
}

// countingTransport counts the control-plane and stream requests a
// coordinator sends its workers.
type countingTransport struct {
	base     http.RoundTripper
	requests atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	return c.base.RoundTrip(r)
}

// daemons is the service stack one set-up builds: a darco-served
// equivalent with a durable store, and a darco-sched equivalent (own
// store) over a store-less worker.
type daemons struct {
	client    *http.Client // the benchmark's own user-side client
	transport *http.Transport
	coordRT   *countingTransport
	coordBase *http.Transport

	served  *tier
	coord   *tier
	workers []*tier
}

// startDaemons brings the stack up under tmp: every daemon runs one
// scenario at a time (jobParallelism, federationWorkers).
func startDaemons(tmp string) (d *daemons, err error) {
	d = &daemons{transport: &http.Transport{}, coordBase: &http.Transport{}}
	d.client = &http.Client{Transport: d.transport}
	d.coordRT = &countingTransport{base: d.coordBase}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	openStore := func(prefix string) (*store.Store, string, error) {
		dir, err := os.MkdirTemp(tmp, prefix)
		if err != nil {
			return nil, "", err
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", err
		}
		return st, dir, nil
	}

	st, dir, err := openStore("served-")
	if err != nil {
		return d, err
	}
	srv := serve.New(serve.Options{Store: st, MaxParallelism: jobParallelism})
	ts := httptest.NewServer(srv)
	d.served = &tier{url: ts.URL, ts: ts, shutdown: srv.Shutdown, st: st, dir: dir}

	var urls []string
	for i := 0; i < federationWorkers; i++ {
		w := serve.New(serve.Options{MaxParallelism: jobParallelism})
		wts := httptest.NewServer(w)
		d.workers = append(d.workers, &tier{url: wts.URL, ts: wts, shutdown: w.Shutdown})
		urls = append(urls, wts.URL)
	}
	if st, dir, err = openStore("sched-"); err != nil {
		return d, err
	}
	// The background prober would add requests at wall-clock intervals;
	// with it parked, requests per job is an exact count.
	coord, err := sched.New(sched.Options{
		Workers:       urls,
		Store:         st,
		Client:        &http.Client{Transport: d.coordRT},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return d, err
	}
	cts := httptest.NewServer(coord)
	d.coord = &tier{url: cts.URL, ts: cts, shutdown: coord.Shutdown, st: st, dir: dir}
	return d, nil
}

// close stops the coordinator before its workers, then the served daemon,
// and drops every idle connection so no goroutine outlives the set-up.
func (d *daemons) close() error {
	var err error
	if d.coord != nil {
		err = errors.Join(err, d.coord.close())
	}
	for _, w := range d.workers {
		err = errors.Join(err, w.close())
	}
	if d.served != nil {
		err = errors.Join(err, d.served.close())
	}
	d.transport.CloseIdleConnections()
	d.coordBase.CloseIdleConnections()
	return err
}

// jobRun is one job as its submitter saw it, timed from the POST.
type jobRun struct {
	id       string
	total    time.Duration // POST sent -> exported CSV in hand
	ack      time.Duration // POST sent -> 202 decoded
	firstRow time.Duration // POST sent -> first scenario frame
	terminal time.Duration // POST sent -> event stream ended
	export   time.Duration // export.csv request alone
	frames   int           // scenario + telemetry frames on the stream
	final    serve.JobStatus
	csv      []byte
}

// runJob drives one job the way a client does: POST the submission,
// follow /events as NDJSON until the daemon ends the stream, then fetch
// export.csv. One request is in flight at a time.
func runJob(client *http.Client, base string, body []byte, tr *tracer, parent spanRef) (jobRun, error) {
	var run jobRun
	t0 := time.Now()
	sp := tr.begin(parent, "submit", "client")
	resp, err := client.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return run, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return run, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return run, fmt.Errorf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return run, fmt.Errorf("submit response: %w", err)
	}
	run.id = st.ID
	run.ack = time.Since(t0)
	tr.end(sp)

	jobURL := base + "/api/v1/jobs/" + st.ID
	wait := tr.begin(parent, "first-row wait", "client")
	var streamSpan spanRef
	resp, err = client.Get(jobURL + "/events?format=ndjson")
	if err != nil {
		return run, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return run, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			resp.Body.Close()
			return run, fmt.Errorf("events: bad frame %q: %w", sc.Text(), err)
		}
		switch f.Event {
		case serve.EventScenario:
			if run.firstRow == 0 {
				run.firstRow = time.Since(t0)
				tr.end(wait)
				streamSpan = tr.begin(parent, "stream", "client")
			}
			run.frames++
		case serve.EventTelemetry:
			run.frames++
		case serve.EventState:
			if err := json.Unmarshal(f.Data, &run.final); err != nil {
				resp.Body.Close()
				return run, fmt.Errorf("events: state frame: %w", err)
			}
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return run, fmt.Errorf("events: %w", err)
	}
	run.terminal = time.Since(t0)
	tr.end(streamSpan)
	if run.final.State != serve.JobDone {
		return run, fmt.Errorf("job %s ended %s: %s", st.ID, run.final.State, run.final.Error)
	}

	sp = tr.begin(parent, "export", "client")
	t1 := time.Now()
	resp, err = client.Get(jobURL + "/export.csv")
	if err != nil {
		return run, err
	}
	run.csv, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return run, err
	}
	if resp.StatusCode != http.StatusOK {
		return run, fmt.Errorf("export.csv: status %d: %s", resp.StatusCode, run.csv)
	}
	run.export = time.Since(t1)
	run.total = time.Since(t0)
	tr.end(sp)
	return run, nil
}

// workerJobs lists the federation workers' jobs: how many shard jobs they
// have run so far, and when the latest of them finished on the worker side.
func workerJobs(client *http.Client, workers []*tier) (count int, last time.Time, err error) {
	for _, w := range workers {
		resp, err := client.Get(w.url + "/api/v1/jobs")
		if err != nil {
			return 0, last, err
		}
		var jobs []serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&jobs)
		resp.Body.Close()
		if err != nil {
			return 0, last, err
		}
		count += len(jobs)
		for _, j := range jobs {
			if j.FinishedAt != nil && j.FinishedAt.After(last) {
				last = *j.FinishedAt
			}
		}
	}
	return count, last, nil
}
