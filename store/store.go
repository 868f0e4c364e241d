// Package store is the campaign daemon's durable state: an
// append-only, CRC-checked record journal of every job's lifecycle —
// submission, start, per-scenario export rows, telemetry windows,
// terminal state — compacted into immutable per-job snapshot files
// once jobs finish.
//
// # Layout
//
// A store owns one directory:
//
//	LOCK          flock(2) guard against double-opens
//	journal.wal   the live append-only journal (header + framed records)
//	<job>.snap    one immutable snapshot per compacted (terminal) job
//
// Both file kinds share the same framing: an 8-byte magic header, then
// records as [uint32 length][uint32 CRC-32C][JSON payload]. Records
// embed the export/telemetry wire types, so a scenario row is stored
// in exactly the encoding the export endpoints serve — restoring a job
// and re-exporting it reproduces the pre-crash bytes.
//
// # Recovery
//
// Open replays the directory: snapshots load whole jobs, the journal
// replays everything since, and damage never costs more than the
// corrupt suffix — a truncated tail or checksum mismatch discards the
// record it hits and everything after it, keeps every intact record
// before it, and is reported in Recovery. After replay the journal is
// rewritten to hold only still-live jobs (terminal ones found in it
// are compacted to snapshots), so it stays bounded by in-flight work.
//
// # Durability knobs
//
// Options.Sync picks the fsync policy: every record, lifecycle records
// only (the default — telemetry windows ride on the OS flush), or
// none. A SIGKILLed process loses nothing under any policy (the bytes
// are in the page cache); the policies trade throughput against how
// much a machine crash can lose.
package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"darco/obs"
)

// SyncPolicy selects when the journal is fsynced.
type SyncPolicy int

const (
	// SyncLifecycle (the default) fsyncs every record except telemetry
	// windows: job transitions and scenario rows are durable against
	// machine crash, the high-rate telemetry stream is not.
	SyncLifecycle SyncPolicy = iota
	// SyncAlways fsyncs after every record.
	SyncAlways
	// SyncNone never fsyncs; the OS flushes on its own schedule.
	SyncNone
)

// Options configures a Store.
type Options struct {
	// Sync is the journal fsync policy.
	Sync SyncPolicy
	// Logf, when non-nil, receives recovery and compaction notices.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives append/fsync latency
	// observations — the daemons register these histograms on their
	// /metrics registries.
	Metrics *Metrics
}

// Metrics are the store's latency instrumentation points. Either
// histogram may be nil (not recorded).
type Metrics struct {
	// AppendSeconds observes the full Append call (encode + write +
	// any fsync).
	AppendSeconds *obs.Histogram
	// FsyncSeconds observes only the journal fsync, when the policy
	// issues one.
	FsyncSeconds *obs.Histogram
}

// JobHistory is one job's recovered state, assembled from its snapshot
// or its journal records.
type JobHistory struct {
	ID        string
	Name      string
	Request   json.RawMessage
	Scenarios int

	// State is the last journaled state string: "queued" (submitted,
	// never started), "running" (started, no terminal record — the
	// daemon died mid-run), or the terminal state from the finished /
	// interrupted record.
	State       string
	Error       string
	WallMS      float64
	Parallelism int

	// CancelRequested records that a client cancelled the job before
	// any terminal record landed; recovery must not re-run it.
	CancelRequested bool

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time

	// Rows maps scenario index → journaled outcome row (wall metrics
	// included). For a job that finished cleanly it is complete; for an
	// interrupted job it holds exactly the scenarios that completed
	// before the crash.
	Rows map[int]RowRecord

	// Records is the job's full record history in append order — what
	// a snapshot serializes and what event-stream replay feeds from.
	Records []Record

	// TraceID / ParentSpan are the job's tracing identity from its
	// submission record; Spans are its journaled finished spans, in
	// append order. Together they restore GET /jobs/{id}/trace across
	// a restart.
	TraceID    string
	ParentSpan string
	Spans      []obs.Span

	// Coordinator-side (darco-sched) history: the journaled shard
	// fan-out. ShardPlan is the roster cut; Placements holds the most
	// recent placement lease per shard index; ShardsDone the terminal
	// state of shards whose gather loop completed. All empty for
	// worker-tier (darco-served) histories.
	ShardPlan  []ShardSpec
	Placements map[int]ShardPlacedRecord
	ShardsDone map[int]string

	submittedSeq uint64
}

// Terminal reports whether the history ended in a terminal record.
func (h *JobHistory) Terminal() bool {
	return h.State != "queued" && h.State != "running"
}

// Recovery summarizes what Open found and salvaged.
type Recovery struct {
	// Jobs is how many job histories were recovered in total.
	Jobs int
	// SnapshotJobs of those came from snapshot files.
	SnapshotJobs int
	// JournalRecords is the count of intact journal records replayed.
	JournalRecords int
	// Compacted is how many terminal journal-resident jobs Open moved
	// into snapshots.
	Compacted int
	// Corrupt is the reason the journal scan stopped early ("" for a
	// clean scan); DiscardedBytes is the journal suffix dropped with it.
	Corrupt        string
	DiscardedBytes int64
	// DiscardedSnapshots names snapshot files that failed validation
	// and were ignored wholesale.
	DiscardedSnapshots []string
}

// String renders the summary as one log-friendly line.
func (r Recovery) String() string {
	s := fmt.Sprintf("%d jobs (%d from snapshots, %d journal records, %d compacted)",
		r.Jobs, r.SnapshotJobs, r.JournalRecords, r.Compacted)
	if r.Corrupt != "" {
		s += fmt.Sprintf("; journal %s, %d bytes discarded", r.Corrupt, r.DiscardedBytes)
	}
	if len(r.DiscardedSnapshots) > 0 {
		s += fmt.Sprintf("; discarded snapshots %s", strings.Join(r.DiscardedSnapshots, ", "))
	}
	return s
}

// Store is an open campaign store. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	lock      *dirLock
	journal   *os.File
	seq       uint64
	jobs      map[string]*JobHistory
	order     []string
	inJournal map[string]bool // jobs whose records live in journal.wal
	meta      []Record        // store-level records (Job == "") recovered at Open
	recovery  Recovery
	closed    bool
}

const journalName = "journal.wal"

// Open locks dir (creating it if needed), replays its snapshots and
// journal, compacts terminal journal-resident jobs, rewrites the
// journal down to live jobs, and returns the store ready for appends.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{
		dir:       dir,
		opts:      opts,
		lock:      lock,
		jobs:      make(map[string]*JobHistory),
		inJournal: make(map[string]bool),
	}
	if err := st.recover(); err != nil {
		lock.release()
		return nil, err
	}
	return st, nil
}

// Dir reports the store's directory.
func (st *Store) Dir() string { return st.dir }

// Recovery reports what Open found.
func (st *Store) Recovery() Recovery {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.recovery
}

// Jobs returns the recovered histories in submission order. The slice
// is a snapshot; the histories are live and must not be mutated.
func (st *Store) Jobs() []*JobHistory {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*JobHistory, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.jobs[id])
	}
	return out
}

// Meta returns the store-level records (empty Job) recovered at Open,
// in journal order — notably any KindCleanShutdown marker the previous
// owner appended. Markers do not survive into the rewritten journal, so
// each describes exactly the shutdown preceding this Open.
func (st *Store) Meta() []Record {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Record, len(st.meta))
	copy(out, st.meta)
	return out
}

// OpenWait is Open for a warm standby: while dir is flock-held by a
// live primary it waits, polling until the lease frees (the kernel
// drops a dead primary's flock even after SIGKILL, so takeover needs
// no consensus — just this lock), then recovers and returns like Open.
// Any error other than the held lease fails immediately.
func OpenWait(ctx context.Context, dir string, opts Options) (*Store, error) {
	const poll = 250 * time.Millisecond
	for {
		st, err := Open(dir, opts)
		if err == nil {
			return st, nil
		}
		if !errors.Is(err, ErrLocked) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("store: waiting for lease on %s: %w", dir, ctx.Err())
		case <-time.After(poll):
		}
	}
}

// recover loads snapshots, replays the journal, compacts terminal
// journal jobs, and rewrites the journal to the live remainder.
func (st *Store) recover() error {
	names, err := filepath.Glob(filepath.Join(st.dir, "*.snap"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	snapshotted := make(map[string]bool)
	for _, name := range names {
		recs, err := readSnapshot(name)
		if err != nil {
			st.logf("store: discarding snapshot %s: %v", filepath.Base(name), err)
			st.recovery.DiscardedSnapshots = append(st.recovery.DiscardedSnapshots, filepath.Base(name))
			continue
		}
		for i := range recs {
			st.apply(&recs[i])
		}
		if len(recs) > 0 {
			snapshotted[recs[0].Job] = true
		}
		st.recovery.SnapshotJobs++
	}

	journalPath := filepath.Join(st.dir, journalName)
	var journalRecs []Record
	if raw, err := os.ReadFile(journalPath); err == nil {
		journalRecs = st.scanJournal(raw, snapshotted)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}

	// Terminal jobs still journal-resident become snapshots now; the
	// rewritten journal keeps only live (queued/running) jobs, so its
	// size is bounded by in-flight work, not history.
	live := make(map[string]bool)
	for _, rec := range journalRecs {
		// Store-level records (empty Job) are consumed by this
		// recovery — the Meta accessor exposes them — and dropped from
		// the rewritten journal: a clean-shutdown marker describes the
		// shutdown before this open, not the next one.
		if rec.Job == "" || snapshotted[rec.Job] {
			continue
		}
		live[rec.Job] = true
	}
	for id := range live {
		h := st.jobs[id]
		if h != nil && h.Terminal() {
			if err := st.writeSnapshot(h); err != nil {
				return err
			}
			delete(live, id)
			st.recovery.Compacted++
		}
	}
	f, err := os.CreateTemp(st.dir, journalName+".tmp-")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(f.Name())
	buf := append([]byte(nil), journalMagic[:]...)
	for _, rec := range journalRecs {
		if !live[rec.Job] {
			continue
		}
		if buf, err = appendFrame(buf, &rec); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: rewrite journal: %w", err)
	}
	if err := os.Rename(f.Name(), journalPath); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(st.dir); err != nil {
		return err
	}
	st.inJournal = live
	st.journal, err = os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sort.Slice(st.order, func(a, b int) bool {
		return st.jobs[st.order[a]].submittedSeq < st.jobs[st.order[b]].submittedSeq
	})
	st.recovery.Jobs = len(st.order)
	return nil
}

// scanJournal replays raw journal bytes, stopping at the first damaged
// frame and recording what was salvaged and discarded. Records for
// already-snapshotted jobs are skipped (the snapshot is the complete,
// authoritative copy; leftovers mean a crash landed between compaction
// and journal truncation).
func (st *Store) scanJournal(raw []byte, snapshotted map[string]bool) []Record {
	if len(raw) < len(journalMagic) || !bytes.Equal(raw[:len(journalMagic)], journalMagic[:]) {
		if len(raw) > 0 {
			st.recovery.Corrupt = "bad journal header"
			st.recovery.DiscardedBytes = int64(len(raw))
			st.logf("store: journal has no valid header; discarding %d bytes", len(raw))
		}
		return nil
	}
	body := raw[len(journalMagic):]
	sc := &frameScanner{r: bytes.NewReader(body)}
	var out []Record
	for {
		rec, err := sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			st.recovery.Corrupt = err.Error()
			st.recovery.DiscardedBytes = int64(len(body)) - sc.offset
			st.logf("store: journal %v; salvaged %d records, discarded %d bytes",
				err, len(out), st.recovery.DiscardedBytes)
			break
		}
		if !snapshotted[rec.Job] {
			st.apply(rec)
			out = append(out, *rec)
		}
		st.recovery.JournalRecords++
	}
	return out
}

// apply folds one record into the job histories. Records with an empty
// Job are store-level (e.g. the clean-shutdown marker): they carry no
// job history and are collected separately for Meta.
func (st *Store) apply(rec *Record) {
	if rec.Seq > st.seq {
		st.seq = rec.Seq
	}
	if rec.Job == "" {
		st.meta = append(st.meta, *rec)
		return
	}
	h := st.jobs[rec.Job]
	if h == nil {
		h = &JobHistory{ID: rec.Job, State: "queued", Rows: make(map[int]RowRecord)}
		st.jobs[rec.Job] = h
		st.order = append(st.order, rec.Job)
	}
	h.Records = append(h.Records, *rec)
	switch rec.Kind {
	case KindSubmitted:
		if s := rec.Submitted; s != nil {
			h.Name = s.Name
			h.Scenarios = s.Scenarios
			h.Request = s.Request
			h.TraceID = s.TraceID
			h.ParentSpan = s.ParentSpan
		}
		h.SubmittedAt = rec.Time
		h.submittedSeq = rec.Seq
	case KindStarted:
		h.State = "running"
		h.StartedAt = rec.Time
	case KindRow:
		if r := rec.Row; r != nil {
			h.Rows[r.Index] = *r
		}
	case KindCancelRequested:
		h.CancelRequested = true
	case KindFinished:
		if f := rec.Finished; f != nil {
			h.State = f.State
			h.Error = f.Error
			h.WallMS = f.WallMS
			h.Parallelism = f.Parallelism
		}
		h.FinishedAt = rec.Time
	case KindInterrupted:
		h.State = "interrupted"
		if i := rec.Interrupted; i != nil {
			h.Error = i.Reason
		}
		h.FinishedAt = rec.Time
	case KindSpan:
		if s := rec.Span; s != nil {
			h.Spans = append(append(h.Spans, s.Span), s.Children...)
		}
	case KindShardPlan:
		if p := rec.ShardPlan; p != nil {
			h.ShardPlan = p.Shards
		}
	case KindShardPlaced:
		if p := rec.ShardPlaced; p != nil {
			if h.Placements == nil {
				h.Placements = make(map[int]ShardPlacedRecord)
			}
			h.Placements[p.Shard] = *p
		}
	case KindShardTerminal:
		if t := rec.ShardTerminal; t != nil {
			if h.ShardsDone == nil {
				h.ShardsDone = make(map[int]string)
			}
			h.ShardsDone[t.Shard] = t.State
		}
	}
}

// Append journals one record, assigning its sequence number and
// applying the configured fsync policy.
func (st *Store) Append(rec Record) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return fmt.Errorf("store: append %s for %s: store is closed", rec.Kind, rec.Job)
	}
	// A compacted job's snapshot is its immutable, complete history;
	// accepting a late record (e.g. a cancel racing the job's terminal
	// transition) would re-mark the job journal-resident with no path
	// back to compaction, permanently disabling journal truncation.
	if h := st.jobs[rec.Job]; h != nil && h.Terminal() && !st.inJournal[rec.Job] {
		return fmt.Errorf("store: append %s for %s: job already compacted", rec.Kind, rec.Job)
	}
	st.seq++
	rec.Seq = st.seq
	var appendStart time.Time
	if m := st.opts.Metrics; m != nil && m.AppendSeconds != nil {
		appendStart = time.Now()
	}
	buf, err := appendFrame(nil, &rec)
	if err != nil {
		return err
	}
	if _, err := st.journal.Write(buf); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	// Spans and telemetry are observability records: under the
	// lifecycle policy they ride the OS flush instead of forcing an
	// fsync per record.
	sync := st.opts.Sync == SyncAlways ||
		(st.opts.Sync == SyncLifecycle && rec.Kind != KindTelemetry && rec.Kind != KindSpan)
	if sync {
		var fsyncStart time.Time
		if m := st.opts.Metrics; m != nil && m.FsyncSeconds != nil {
			fsyncStart = time.Now()
		}
		err = st.journal.Sync()
		if m := st.opts.Metrics; m != nil && m.FsyncSeconds != nil {
			m.FsyncSeconds.Observe(time.Since(fsyncStart).Seconds())
		}
	}
	if err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	if m := st.opts.Metrics; m != nil && m.AppendSeconds != nil {
		m.AppendSeconds.Observe(time.Since(appendStart).Seconds())
	}
	st.apply(&rec)
	if rec.Job != "" {
		st.inJournal[rec.Job] = true
	}
	return nil
}

// CompactJob freezes a terminal job into its immutable snapshot file
// and, when that empties the journal of live jobs, truncates the
// journal back to its header.
func (st *Store) CompactJob(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return fmt.Errorf("store: compact %s: store is closed", id)
	}
	h := st.jobs[id]
	if h == nil {
		return fmt.Errorf("store: compact %s: unknown job", id)
	}
	if !h.Terminal() {
		return fmt.Errorf("store: compact %s: job is %s, not terminal", id, h.State)
	}
	if !st.inJournal[id] {
		return nil // already snapshotted
	}
	if err := st.writeSnapshot(h); err != nil {
		return err
	}
	delete(st.inJournal, id)
	if len(st.inJournal) == 0 {
		if err := st.journal.Truncate(int64(len(journalMagic))); err != nil {
			return fmt.Errorf("store: truncate journal: %w", err)
		}
		if err := st.journal.Sync(); err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	return nil
}

// writeSnapshot persists h's full record history atomically
// (temp + fsync + rename). Caller holds st.mu or is in recover.
func (st *Store) writeSnapshot(h *JobHistory) error {
	buf := append([]byte(nil), snapshotMagic[:]...)
	var err error
	for i := range h.Records {
		if buf, err = appendFrame(buf, &h.Records[i]); err != nil {
			return err
		}
	}
	f, err := os.CreateTemp(st.dir, h.ID+".snap.tmp-")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: snapshot %s: %w", h.ID, err)
	}
	if err := os.Rename(f.Name(), filepath.Join(st.dir, h.ID+".snap")); err != nil {
		return fmt.Errorf("store: snapshot %s: %w", h.ID, err)
	}
	if err := syncDir(st.dir); err != nil {
		return err
	}
	st.logf("store: compacted %s (%d records)", h.ID, len(h.Records))
	return nil
}

// readSnapshot loads one snapshot file. Snapshots are written
// atomically, so any damage fails the whole file.
func readSnapshot(path string) ([]Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(snapshotMagic) || !bytes.Equal(raw[:len(snapshotMagic)], snapshotMagic[:]) {
		return nil, fmt.Errorf("bad snapshot header")
	}
	sc := &frameScanner{r: bytes.NewReader(raw[len(snapshotMagic):])}
	var out []Record
	for {
		rec, err := sc.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, *rec)
	}
}

// Close flushes and releases the store. Appends after Close fail.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	var err error
	if st.journal != nil {
		if st.opts.Sync != SyncNone {
			err = st.journal.Sync()
		}
		if cerr := st.journal.Close(); err == nil {
			err = cerr
		}
	}
	if lerr := st.lock.release(); err == nil {
		err = lerr
	}
	return err
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

func (st *Store) logf(format string, args ...any) {
	if st.opts.Logf != nil {
		st.opts.Logf(format, args...)
	}
}
