package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"darco/export"
	"darco/perf"
	"darco/store"
)

// recoverJobs is how many compacted jobs the recovery probe opens over.
const recoverJobs = 200

// stamp is the fixed record time of synthetic jobs, so that a snapshot's
// size is an exact count.
var stamp = time.Date(2017, 4, 24, 0, 0, 0, 0, time.UTC)

// journalJob appends one whole job history through the public API and
// returns the wall of each row append.
func journalJob(st *store.Store, id string, request []byte, rows []export.Row) ([]float64, error) {
	rec := func(kind store.Kind) store.Record { return store.Record{Kind: kind, Job: id, Time: stamp} }
	sub := rec(store.KindSubmitted)
	sub.Submitted = &store.SubmittedRecord{Name: "bench", Scenarios: len(rows), Request: request}
	if err := st.Append(sub); err != nil {
		return nil, err
	}
	if err := st.Append(rec(store.KindStarted)); err != nil {
		return nil, err
	}
	walls := make([]float64, 0, len(rows))
	for i := range rows {
		r := rec(store.KindRow)
		r.Row = &store.RowRecord{Index: i, Row: rows[i]}
		t0 := time.Now()
		if err := st.Append(r); err != nil {
			return nil, err
		}
		walls = append(walls, us(time.Since(t0)))
	}
	fin := rec(store.KindFinished)
	fin.Finished = &store.FinishedRecord{State: "done", Parallelism: 1}
	return walls, st.Append(fin)
}

// storeProbes times the durable store alone, on the job roster's own rows:
// a row append under the default and the no-fsync policy, compaction of a
// finished job, and recovery over a directory of compacted jobs.
func storeProbes(tmp string, request []byte, rows []export.Row, quick bool, vals map[string]float64) error {
	for _, pol := range []struct {
		metric string
		sync   store.SyncPolicy
	}{
		{"store.append_us_p50", store.SyncLifecycle},
		{"store.append_nosync_us_p50", store.SyncNone},
	} {
		dir, err := os.MkdirTemp(tmp, "append-")
		if err != nil {
			return err
		}
		st, err := store.Open(dir, store.Options{Sync: pol.sync})
		if err != nil {
			return err
		}
		var walls []float64
		for j := 0; len(walls) < 64; j++ {
			w, err := journalJob(st, fmt.Sprintf("job-%d", j+1), request, rows)
			if err != nil {
				st.Close()
				return err
			}
			walls = append(walls, w...)
		}
		vals[pol.metric] = perf.Median(walls)
		if pol.sync == store.SyncLifecycle {
			t0 := time.Now()
			if err := st.CompactJob("job-1"); err != nil {
				st.Close()
				return err
			}
			vals["store.compact_ms"] = ms(time.Since(t0))
			info, err := os.Stat(filepath.Join(dir, "job-1.snap"))
			if err != nil {
				st.Close()
				return err
			}
			vals["store.snap_bytes_per_job"] = float64(info.Size())
		}
		if err := st.Close(); err != nil {
			return err
		}
	}

	dir, err := os.MkdirTemp(tmp, "recover-")
	if err != nil {
		return err
	}
	jobs := recoverJobs
	if quick {
		jobs /= 10
	}
	st, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		return err
	}
	for j := 0; j < jobs; j++ {
		id := fmt.Sprintf("job-%d", j+1)
		_, err := journalJob(st, id, request, rows)
		if err == nil {
			err = st.CompactJob(id)
		}
		if err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	var opens []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(t0)))
		if n := len(st.Jobs()); n != jobs {
			st.Close()
			return fmt.Errorf("store recovered %d of %d jobs", n, jobs)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	vals["store.open_recover_ms"] = perf.Median(opens)
	return nil
}
