// Package export turns campaign results into downstream-consumable
// artifacts: versioned JSON, CSV, and a self-contained static HTML
// dashboard reproducing the paper's speed/overhead figures.
//
// Exports are deterministic by default: rows appear in the campaign's
// scenario order and carry only counters the emulation reproduces
// bit-identically, so a campaign run serially and one run on a full
// worker pool export byte-identical documents. Wall-clock metrics
// (wall time, MIPS) are machine- and run-dependent and are only
// included under WithWallTimes.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	darco "darco"
	"darco/internal/tol"
)

// SchemaVersion identifies the JSON document layout. Consumers should
// reject schemas they do not know; additive changes (new fields) do
// not bump it, renames and semantic changes do.
const SchemaVersion = 1

// Option configures an export.
type Option func(*config)

type config struct {
	wallTimes bool
}

// WithWallTimes includes wall-clock metrics (per-scenario wall time,
// guest/host MIPS, campaign wall and parallelism). These vary run to
// run, so documents exported with this option are not byte-comparable.
func WithWallTimes() Option {
	return func(c *config) { c.wallTimes = true }
}

func newConfig(opts []Option) config {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// overheadCats is the canonical category order for overhead columns,
// with stable machine-readable slugs (the display names live in
// tol.OverheadCat.String).
var overheadCats = []struct {
	cat  tol.OverheadCat
	slug string
}{
	{tol.OvInterp, "interp"},
	{tol.OvBBTrans, "bb_trans"},
	{tol.OvSBTrans, "sb_trans"},
	{tol.OvPrologue, "prologue"},
	{tol.OvChaining, "chaining"},
	{tol.OvLookup, "lookup"},
	{tol.OvOther, "other"},
}

// Row is one scenario flattened to the deterministic counters the
// paper's figures are built from. Failed scenarios carry their error
// and zero counters.
type Row struct {
	Scenario string  `json:"scenario"`
	Suite    string  `json:"suite"`
	Scale    float64 `json:"scale"`
	Error    string  `json:"error,omitempty"`

	GuestInsns   uint64  `json:"guest_insns"`
	IMPct        float64 `json:"im_pct"`
	BBMPct       float64 `json:"bbm_pct"`
	SBMPct       float64 `json:"sbm_pct"`
	HostAppInsns uint64  `json:"host_app_insns"`
	TOLInsns     uint64  `json:"tol_insns"`
	TOLPct       float64 `json:"tol_pct"`
	SBMCost      float64 `json:"sbm_cost"`

	BBTranslations uint64 `json:"bb_translations"`
	SBTranslations uint64 `json:"sb_translations"`
	UnrolledLoops  uint64 `json:"unrolled_loops"`
	AssertRebuilds uint64 `json:"assert_rebuilds"`
	SpecRebuilds   uint64 `json:"spec_rebuilds"`
	Dispatches     uint64 `json:"dispatches"`
	Validations    uint64 `json:"validations"`
	PageTransfers  uint64 `json:"page_transfers"`
	SyscallSyncs   uint64 `json:"syscall_syncs"`
	ExitCode       int32  `json:"exit_code"`

	// Overhead is the Fig. 7 breakdown in host instructions, keyed by
	// the canonical category slugs (interp, bb_trans, ...).
	Overhead map[string]uint64 `json:"overhead"`

	// Timing-simulator results; zero when no simulator was attached.
	Cycles uint64  `json:"cycles,omitempty"`
	IPC    float64 `json:"ipc,omitempty"`

	// Wall-clock metrics, populated only under WithWallTimes.
	WallMS    float64 `json:"wall_ms,omitempty"`
	GuestMIPS float64 `json:"guest_mips,omitempty"`
	HostMIPS  float64 `json:"host_mips,omitempty"`
}

// Report is the versioned JSON document: one row per campaign
// scenario, in scenario order.
type Report struct {
	Schema    int     `json:"schema"`
	Generator string  `json:"generator"`
	Scenarios []Row   `json:"scenarios"`
	WallMS    float64 `json:"wall_ms,omitempty"`     // campaign wall (WithWallTimes)
	Workers   int     `json:"parallelism,omitempty"` // worker-pool width (WithWallTimes)
}

// NewRow flattens one scenario outcome. It is the single conversion
// point shared by the whole-report and streaming writers, so every
// export format agrees on field semantics.
func NewRow(sr *darco.ScenarioResult, opts ...Option) Row {
	cfg := newConfig(opts)
	return newRow(sr, &cfg)
}

func newRow(sr *darco.ScenarioResult, cfg *config) Row {
	scale := sr.Scenario.Scale
	if scale == 0 {
		scale = 1
	}
	name := sr.Scenario.Name
	if name == "" {
		name = sr.Scenario.Profile.Name
	}
	row := Row{
		Scenario: name,
		Suite:    sr.Scenario.Profile.Suite,
		Scale:    scale,
		Overhead: make(map[string]uint64, len(overheadCats)),
	}
	if sr.Err != nil {
		row.Error = sr.Err.Error()
	}
	if cfg.wallTimes {
		row.WallMS = float64(sr.Wall.Nanoseconds()) / 1e6
	}
	res := sr.Result
	if res == nil {
		for _, oc := range overheadCats {
			row.Overhead[oc.slug] = 0
		}
		return row
	}
	im, bbm, sbm := res.ModeShares()
	row.GuestInsns = res.Stats.GuestInsns()
	row.IMPct = round2(100 * im)
	row.BBMPct = round2(100 * bbm)
	row.SBMPct = round2(100 * sbm)
	row.HostAppInsns = res.HostAppInsns
	row.TOLInsns = res.Overhead.Total()
	row.TOLPct = round2(100 * res.TOLOverheadFrac())
	row.SBMCost = round2(res.EmulationCostSBM())
	row.BBTranslations = res.Stats.BBTranslations
	row.SBTranslations = res.Stats.SBTranslations
	row.UnrolledLoops = res.Stats.UnrolledLoops
	row.AssertRebuilds = res.Stats.AssertRebuilds
	row.SpecRebuilds = res.Stats.SpecRebuilds
	row.Dispatches = res.Stats.Dispatches
	row.Validations = res.Validations
	row.PageTransfers = res.PageTransfers
	row.SyscallSyncs = res.SyscallSyncs
	row.ExitCode = res.ExitCode
	for _, oc := range overheadCats {
		row.Overhead[oc.slug] = res.Overhead.Cat[oc.cat]
	}
	if res.Timing != nil {
		row.Cycles = res.Timing.Cycles
		row.IPC = round4(res.Timing.IPC())
	}
	if cfg.wallTimes {
		row.GuestMIPS = res.GuestMIPS
		row.HostMIPS = res.HostMIPS
	}
	return row
}

// Rows flattens a whole campaign report in scenario order.
func Rows(rep *darco.CampaignReport, opts ...Option) []Row {
	cfg := newConfig(opts)
	out := make([]Row, len(rep.Results))
	for i := range rep.Results {
		out[i] = newRow(&rep.Results[i], &cfg)
	}
	return out
}

// StripWallRow returns row with the wall-clock fields zeroed — the
// deterministic default view of a row built (or stored) with
// WithWallTimes. This is the one place that knows which Row fields
// are wall-dependent.
func StripWallRow(row Row) Row {
	row.WallMS = 0
	row.GuestMIPS = 0
	row.HostMIPS = 0
	return row
}

// StripWall is StripWallRow over a whole row set. A consumer that
// persists wall-inclusive rows can serve both the byte-comparable
// default export and the ?wall=1 view from the same stored encoding.
func StripWall(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i := range rows {
		out[i] = StripWallRow(rows[i])
	}
	return out
}

// NewReport builds the versioned JSON document for a campaign.
func NewReport(rep *darco.CampaignReport, opts ...Option) *Report {
	cfg := newConfig(opts)
	doc := NewRowReport(Rows(rep, opts...))
	if cfg.wallTimes {
		doc.WallMS = float64(rep.Wall.Nanoseconds()) / 1e6
		doc.Workers = rep.Parallelism
	}
	return doc
}

// NewRowReport builds the versioned JSON document around pre-flattened
// rows. Given the rows a CampaignReport would flatten to, the document
// is identical to NewReport's — this is the restore path for consumers
// (the serve daemon's durable store) that persist rows rather than
// live reports. Campaign-level wall fields are left for the caller.
func NewRowReport(rows []Row) *Report {
	return &Report{
		Schema:    SchemaVersion,
		Generator: "darco",
		Scenarios: rows,
	}
}

// WriteReport writes an assembled Report document the way WriteJSON
// does: two-space indented with a trailing newline.
func WriteReport(w io.Writer, doc *Report) error {
	data, err := EncodeJSON(doc)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteJSON writes the campaign as an indented, versioned JSON
// document with a trailing newline.
func WriteJSON(w io.Writer, rep *darco.CampaignReport, opts ...Option) error {
	return WriteReport(w, NewReport(rep, opts...))
}

// EncodeJSON marshals v the way every darco JSON artifact is written:
// two-space indented with a trailing newline. The BENCH_<n>.json
// perf-trajectory writer shares it, so the repository's JSON outputs
// stay diff-friendly and byte-stable for identical inputs.
func EncodeJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// round2 and round4 quantize derived ratios so exports do not leak
// platform-dependent last-bit float formatting into the byte-stable
// documents.
func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

// ftoa formats floats for CSV deterministically.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// csvHeader returns the CSV column list for the given options. The
// deterministic columns come first; wall-clock columns are appended
// only under WithWallTimes so default exports are byte-comparable.
func csvHeader(cfg *config) []string {
	h := []string{
		"scenario", "suite", "scale", "status",
		"guest_insns", "im_pct", "bbm_pct", "sbm_pct",
		"host_app_insns", "tol_insns", "tol_pct", "sbm_cost",
		"bb_translations", "sb_translations", "unrolled_loops",
		"assert_rebuilds", "spec_rebuilds", "dispatches",
		"validations", "page_transfers", "syscall_syncs", "exit_code",
	}
	for _, oc := range overheadCats {
		h = append(h, "ov_"+oc.slug)
	}
	h = append(h, "cycles", "ipc")
	if cfg.wallTimes {
		h = append(h, "wall_ms", "guest_mips", "host_mips")
	}
	return h
}

// csvRecord renders one row in csvHeader order.
func csvRecord(row *Row, cfg *config) []string {
	status := "ok"
	if row.Error != "" {
		status = "error: " + row.Error
	}
	rec := []string{
		row.Scenario, row.Suite, ftoa(row.Scale), status,
		itoa(row.GuestInsns), ftoa(row.IMPct), ftoa(row.BBMPct), ftoa(row.SBMPct),
		itoa(row.HostAppInsns), itoa(row.TOLInsns), ftoa(row.TOLPct), ftoa(row.SBMCost),
		itoa(row.BBTranslations), itoa(row.SBTranslations), itoa(row.UnrolledLoops),
		itoa(row.AssertRebuilds), itoa(row.SpecRebuilds), itoa(row.Dispatches),
		itoa(row.Validations), itoa(row.PageTransfers), itoa(row.SyscallSyncs),
		strconv.FormatInt(int64(row.ExitCode), 10),
	}
	for _, oc := range overheadCats {
		rec = append(rec, itoa(row.Overhead[oc.slug]))
	}
	rec = append(rec, itoa(row.Cycles), ftoa(row.IPC))
	if cfg.wallTimes {
		rec = append(rec, ftoa(row.WallMS), ftoa(row.GuestMIPS), ftoa(row.HostMIPS))
	}
	return rec
}

// WriteCSV writes the campaign as CSV: a header line, then one record
// per scenario in scenario order.
func WriteCSV(w io.Writer, rep *darco.CampaignReport, opts ...Option) error {
	return WriteCSVRows(w, Rows(rep, opts...), opts...)
}

// WriteCSVRows writes pre-flattened rows as CSV with the same header,
// quoting and column rules as WriteCSV — the options select columns
// (WithWallTimes adds the wall columns) but the row values are written
// as given.
func WriteCSVRows(w io.Writer, rows []Row, opts ...Option) error {
	cfg := newConfig(opts)
	cw := newCSVWriter(w)
	if err := cw.write(csvHeader(&cfg)); err != nil {
		return err
	}
	for i := range rows {
		if err := cw.write(csvRecord(&rows[i], &cfg)); err != nil {
			return err
		}
	}
	return nil
}

// csvWriter is a minimal RFC-4180 record writer. encoding/csv would do,
// but a local one keeps quoting rules (and therefore golden bytes)
// pinned by this package alone.
type csvWriter struct{ w io.Writer }

func newCSVWriter(w io.Writer) *csvWriter { return &csvWriter{w: w} }

func (c *csvWriter) write(fields []string) error {
	for i, f := range fields {
		if i > 0 {
			if _, err := io.WriteString(c.w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(c.w, csvQuote(f)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(c.w, "\n")
	return err
}

// csvQuote quotes a field when it contains a comma, quote or newline.
func csvQuote(f string) string {
	needs := false
	for i := 0; i < len(f); i++ {
		switch f[i] {
		case ',', '"', '\n', '\r':
			needs = true
		}
	}
	if !needs {
		return f
	}
	out := make([]byte, 0, len(f)+2)
	out = append(out, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			out = append(out, '"', '"')
		} else {
			out = append(out, f[i])
		}
	}
	return string(append(out, '"'))
}

// rowSequencer is the row-reordering core behind the streaming writers
// (CSVStream, NDJSONStream): ScenarioResults arrive from the
// WithScenarioDone hook in any completion order, are flattened with the
// stream's options, and reach write strictly in scenario order, the
// contiguous completed prefix flushed as it grows — which is why the
// bytes are identical at any parallelism. RunCampaign serializes the
// hook, so it needs no locking.
type rowSequencer struct {
	label   string // for error messages: "csv", "ndjson"
	cfg     config
	write   func(*Row) error
	pending []*Row
	next    int
	err     error
}

// newRowSequencer prepares to sequence n rows into write, which is
// called exactly once per index in strictly increasing order.
func newRowSequencer(label string, n int, cfg config, write func(*Row) error) *rowSequencer {
	return &rowSequencer{label: label, cfg: cfg, write: write, pending: make([]*Row, n)}
}

// done records scenario i's outcome and flushes the contiguous
// completed prefix. Out-of-range indices and repeats of an
// already-flushed index are ignored; a repeat of a still-pending index
// overwrites it.
func (s *rowSequencer) done(i int, sr *darco.ScenarioResult) {
	if s.err != nil || i < s.next || i >= len(s.pending) {
		return
	}
	row := newRow(sr, &s.cfg)
	s.pending[i] = &row
	for s.next < len(s.pending) && s.pending[s.next] != nil {
		if err := s.write(s.pending[s.next]); err != nil {
			s.err = err
			return
		}
		s.pending[s.next] = nil
		s.next++
	}
}

// close reports whether every row was delivered and written.
func (s *rowSequencer) close() error {
	if s.err != nil {
		return s.err
	}
	if s.next != len(s.pending) {
		return fmt.Errorf("export: %s stream closed after %d of %d rows", s.label, s.next, len(s.pending))
	}
	return nil
}

// CSVStream writes campaign rows incrementally as scenarios finish,
// emitting records strictly in scenario order regardless of completion
// order — the bytes produced are identical at any parallelism. Use its
// Done method as the Engine.RunCampaign WithScenarioDone hook and call
// Close after the campaign returns:
//
//	stream, _ := export.NewCSVStream(os.Stdout, len(scenarios))
//	rep, _ := eng.RunCampaign(ctx, scenarios, darco.WithScenarioDone(stream.Done))
//	err := stream.Close()
type CSVStream struct {
	seq *rowSequencer
}

// NewCSVStream writes the header immediately and prepares to stream n
// scenario rows.
func NewCSVStream(w io.Writer, n int, opts ...Option) (*CSVStream, error) {
	cfg := newConfig(opts)
	cw := newCSVWriter(w)
	if err := cw.write(csvHeader(&cfg)); err != nil {
		return nil, err
	}
	s := &CSVStream{}
	s.seq = newRowSequencer("csv", n, cfg, func(row *Row) error {
		return cw.write(csvRecord(row, &cfg))
	})
	return s, nil
}

// Done records scenario i's outcome and flushes the contiguous
// completed prefix. It matches the WithScenarioDone hook signature;
// RunCampaign serializes calls, so Done needs no locking of its own.
func (s *CSVStream) Done(i int, sr *darco.ScenarioResult) { s.seq.done(i, sr) }

// Close reports whether every row was delivered and written.
func (s *CSVStream) Close() error { return s.seq.close() }

// WriteNDJSONRow writes one row as a compact single-line JSON object
// with a trailing newline — the NDJSON framing shared by WriteNDJSON,
// NDJSONStream and the serve daemon's live row events.
func WriteNDJSONRow(w io.Writer, row *Row) error {
	data, err := json.Marshal(row)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteNDJSON writes the campaign as newline-delimited JSON: one
// compact Row object per line, in scenario order, no envelope. NDJSON
// suits big sweeps — rows append and concatenate without re-parsing a
// document, and line-oriented tools consume them directly.
func WriteNDJSON(w io.Writer, rep *darco.CampaignReport, opts ...Option) error {
	return WriteNDJSONRows(w, Rows(rep, opts...))
}

// WriteNDJSONRows writes pre-flattened rows in NDJSON framing, one
// compact object per line in the given order.
func WriteNDJSONRows(w io.Writer, rows []Row) error {
	for i := range rows {
		if err := WriteNDJSONRow(w, &rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// NDJSONStream writes campaign rows incrementally as scenarios finish,
// one compact JSON object per line strictly in scenario order — like
// CSVStream, the bytes are identical at any parallelism and match
// WriteNDJSON on the finished report.
type NDJSONStream struct {
	seq *rowSequencer
}

// NewNDJSONStream prepares to stream n scenario rows to w.
func NewNDJSONStream(w io.Writer, n int, opts ...Option) *NDJSONStream {
	s := &NDJSONStream{}
	s.seq = newRowSequencer("ndjson", n, newConfig(opts), func(row *Row) error {
		return WriteNDJSONRow(w, row)
	})
	return s
}

// Done records scenario i's outcome and flushes the contiguous
// completed prefix; it matches the WithScenarioDone hook signature.
func (s *NDJSONStream) Done(i int, sr *darco.ScenarioResult) { s.seq.done(i, sr) }

// Close reports whether every row was delivered and written.
func (s *NDJSONStream) Close() error { return s.seq.close() }
