package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"darco/export"
	"darco/obs"
	"darco/telemetry"
)

// Kind tags what a journal record describes.
type Kind string

// Record kinds, in the order a job's history normally emits them.
const (
	// KindSubmitted opens a job's history: its id, name and the raw
	// submission request (replayed to rebuild the job on recovery).
	KindSubmitted Kind = "submitted"
	// KindStarted marks the transition to running.
	KindStarted Kind = "started"
	// KindRow records one scenario's outcome as the deterministic
	// export.Row (wall metrics included, so both the byte-comparable
	// default export and the ?wall=1 view restore from it).
	KindRow Kind = "row"
	// KindTelemetry records one instruction-mix window of an in-flight
	// scenario; it exists for event-stream replay, not for exports.
	KindTelemetry Kind = "telemetry"
	// KindCancelRequested marks a client cancel on a not-yet-terminal
	// job. The terminal record still follows once the job observes the
	// cancellation — this record exists so a daemon that dies first
	// does not re-queue a job its client already cancelled.
	KindCancelRequested Kind = "cancel_requested"
	// KindFinished closes a job's history with its terminal state.
	KindFinished Kind = "finished"
	// KindInterrupted is appended during recovery for a job found
	// mid-run: the daemon died before the job could finish.
	KindInterrupted Kind = "interrupted"
	// KindSpan records one finished tracing span of the job (queue
	// wait, a scenario, a shard, the job root). Spans journal so GET
	// /jobs/{id}/trace survives restarts like every other surface; they
	// ride the OS flush under SyncLifecycle, like telemetry — losing a
	// span to a machine crash degrades a trace, not a job.
	KindSpan Kind = "span"

	// The remaining kinds are the fleet coordinator's (darco-sched):
	// a federated job journals its shard fan-out through them, so a
	// restarted (or failed-over) coordinator can re-adopt the
	// worker-side shard jobs instead of re-dispatching them.

	// KindShardPlan records how the job's roster was cut into
	// contiguous shards.
	KindShardPlan Kind = "shard_plan"
	// KindShardPlaced records one shard's placement lease: which
	// worker accepted it, under which worker-side job id, and exactly
	// which global scenario indices that submission carried (the
	// positional mapping a re-adopted event stream is decoded with).
	KindShardPlaced Kind = "shard_placed"
	// KindShardTerminal records that a shard's gather loop finished:
	// every one of its scenarios has a committed row.
	KindShardTerminal Kind = "shard_terminal"

	// KindCleanShutdown is a store-level marker (Job empty) appended
	// when a daemon finishes a graceful shutdown with every runner
	// drained. Its presence tells the next open that "running"
	// histories cannot exist by accident; its absence marks a crash.
	// Markers are consumed at recovery: the rewritten journal drops
	// them, so each one describes exactly one shutdown.
	KindCleanShutdown Kind = "clean_shutdown"
)

// Record is one journal entry. Exactly one of the payload pointers
// matching Kind is set; the envelope fields are common to all kinds.
// Records marshal as JSON inside the journal's CRC-checked binary
// framing, so the on-disk encoding of rows and telemetry windows is
// exactly the export/telemetry wire encoding.
type Record struct {
	// Seq is the store-assigned append sequence, strictly increasing
	// across the store's lifetime (snapshots preserve it).
	Seq  uint64    `json:"seq"`
	Kind Kind      `json:"kind"`
	Job  string    `json:"job"`
	Time time.Time `json:"time"`

	Submitted     *SubmittedRecord     `json:"submitted,omitempty"`
	Row           *RowRecord           `json:"row,omitempty"`
	Telemetry     *TelemetryRecord     `json:"telemetry,omitempty"`
	Finished      *FinishedRecord      `json:"finished,omitempty"`
	Interrupted   *InterruptedRecord   `json:"interrupted,omitempty"`
	Span          *SpanRecord          `json:"span,omitempty"`
	ShardPlan     *ShardPlanRecord     `json:"shard_plan,omitempty"`
	ShardPlaced   *ShardPlacedRecord   `json:"shard_placed,omitempty"`
	ShardTerminal *ShardTerminalRecord `json:"shard_terminal,omitempty"`
}

// SubmittedRecord carries the accepted submission.
type SubmittedRecord struct {
	Name string `json:"name,omitempty"`
	// Scenarios is the roster size (kept even though Request implies
	// it, so recovery can size statuses without re-validating).
	Scenarios int `json:"scenarios"`
	// Request is the raw JSON submission body, replayed through the
	// server's validator to re-queue the job after a restart.
	Request json.RawMessage `json:"request"`
	// TraceID / ParentSpan pin the job's tracing identity across
	// restarts: a recovered job keeps emitting spans into the same
	// trace, so a federated trace stitches even when the coordinator
	// dies mid-job. ParentSpan is the propagated upstream span (the
	// coordinator's shard span) for worker-side jobs.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`
}

// RowRecord is one scenario outcome.
type RowRecord struct {
	Index int        `json:"index"`
	Row   export.Row `json:"row"`
}

// TelemetryRecord is one live instruction-mix window.
type TelemetryRecord struct {
	Index    int              `json:"index"`
	Scenario string           `json:"scenario"`
	Window   telemetry.Window `json:"window"`
}

// FinishedRecord closes a job with its terminal state. State is the
// serve layer's job-state string ("done", "failed", "cancelled"); the
// store treats it opaquely except for recognizing terminal histories.
type FinishedRecord struct {
	State       string  `json:"state"`
	Error       string  `json:"error,omitempty"`
	WallMS      float64 `json:"wall_ms"`
	Parallelism int     `json:"parallelism"`
}

// InterruptedRecord marks a mid-run job whose daemon died.
type InterruptedRecord struct {
	Reason string `json:"reason"`
}

// SpanRecord is one finished tracing span, with any spans recorded
// inside it that have no record of their own.
type SpanRecord struct {
	Span     obs.Span   `json:"span"`
	Children []obs.Span `json:"children,omitempty"`
}

// ShardSpec is one contiguous shard of a federated job's roster:
// global scenario indices [Start, Start+Count).
type ShardSpec struct {
	Start int `json:"start"`
	Count int `json:"count"`
}

// ShardPlanRecord records a federated job's shard fan-out.
type ShardPlanRecord struct {
	Shards []ShardSpec `json:"shards"`
}

// ShardPlacedRecord is one shard placement lease. Scenarios lists the
// global indices the worker-side submission carried, in submission
// order — the shard job's local scenario index i maps to Scenarios[i].
type ShardPlacedRecord struct {
	Shard     int    `json:"shard"`
	Worker    string `json:"worker"`
	WorkerJob string `json:"worker_job"`
	Attempt   int    `json:"attempt"`
	Scenarios []int  `json:"scenarios"`
	// Span is the shard's trace span id — the parent the worker-side
	// job spans were stitched under via the X-Darco-Trace header. A
	// re-adopting coordinator reuses it so the re-adopted shard's spans
	// stay attached to the same subtree.
	Span string `json:"span,omitempty"`
}

// ShardTerminalRecord closes one shard's gather loop.
type ShardTerminalRecord struct {
	Shard int    `json:"shard"`
	State string `json:"state"`
}

// On-disk framing: an 8-byte file header (magic + format version),
// then records as [uint32 payload length][uint32 CRC-32C of payload]
// [JSON payload]. Little-endian, like the rest of the fields the
// emulator persists. A reader that hits a short frame or a checksum
// mismatch keeps every record before it — the salvageable prefix — and
// reports what it discarded.
var (
	journalMagic  = [8]byte{'D', 'A', 'R', 'C', 'O', 'W', 'A', '1'}
	snapshotMagic = [8]byte{'D', 'A', 'R', 'C', 'O', 'S', 'N', '1'}
)

const (
	recHeaderSize = 8
	// maxRecordSize bounds a single record frame; a length prefix
	// beyond it is treated as corruption, not an allocation request.
	maxRecordSize = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame encodes rec into buf's framing and returns the extended
// buffer.
func appendFrame(buf []byte, rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// frameScanner reads framed records sequentially, tracking the byte
// offset of the last cleanly-read frame so recovery can truncate a
// corrupt file to its intact prefix.
type frameScanner struct {
	r      io.Reader
	offset int64 // end of the last good frame (after the file header)
}

// errCorrupt wraps any framing-level damage: short frames, oversized
// lengths, checksum mismatches, or undecodable payloads.
type errCorrupt struct {
	offset int64
	reason string
}

func (e *errCorrupt) Error() string {
	return fmt.Sprintf("corrupt record at offset %d: %s", e.offset, e.reason)
}

// next reads one record. io.EOF means a clean end; *errCorrupt means
// the remainder of the file is unusable.
func (s *frameScanner) next() (*Record, error) {
	var hdr [recHeaderSize]byte
	n, err := io.ReadFull(s.r, hdr[:])
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, &errCorrupt{offset: s.offset, reason: fmt.Sprintf("truncated frame header (%d of %d bytes)", n, recHeaderSize)}
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if size > maxRecordSize {
		return nil, &errCorrupt{offset: s.offset, reason: fmt.Sprintf("implausible record length %d", size)}
	}
	payload := make([]byte, size)
	if n, err := io.ReadFull(s.r, payload); err != nil {
		return nil, &errCorrupt{offset: s.offset, reason: fmt.Sprintf("truncated payload (%d of %d bytes)", n, size)}
	}
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, &errCorrupt{offset: s.offset, reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, got)}
	}
	rec := new(Record)
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, &errCorrupt{offset: s.offset, reason: fmt.Sprintf("undecodable payload: %v", err)}
	}
	s.offset += int64(recHeaderSize) + int64(size)
	return rec, nil
}
