// Package telemetry turns a session's retire stream into windowed
// instruction-mix counters for live dashboards.
//
// A Windower aggregates the retired host instructions of one session
// into fixed-size windows — per-class counts, load/store and
// taken-branch totals, and the synchronization markers that fell inside
// the window — emitting each completed window to a callback. Attach
// subscribes it to a session (per scenario, through
// darco.WithScenarioSession) with one delivery per window. The serve
// daemon streams these windows over SSE while campaign jobs are in
// flight; offline consumers can use them to plot instruction-mix phase
// behaviour over a run.
//
// The windower reads only each delivery's RetireBatch.Mix, which the
// session takes from an opcode histogram the host VM keeps as it
// retires — the way a hardware PMU counts. It never asks for
// per-instruction events, so the VM counts most translated blocks per
// control transfer rather than per instruction (hostvm.RetireMix), and
// an attached session runs at about 1.1× the wall of a bare one on the
// repository benchmark's fp-steady workload (telemetry.stream_overhead_x
// 1.07 and 1.13, the medians of two traced passes on a 2-vCPU Xeon;
// 1.33–1.38× when every block was counted per instruction, 3.3× when
// every instruction reached the windower as an event).
//
// Windows are deterministic: for a fixed workload and interval the
// sequence of emitted windows is identical run to run, because the
// retire stream itself is (sequence numbers, batch boundaries and sync
// interleaving included).
package telemetry

import (
	"math"

	darco "darco"
)

// DefaultInterval is the window length, in retired host instructions,
// when the consumer does not choose one. One window per ~million host
// instructions keeps live streams low-rate while still resolving
// program phases.
const DefaultInterval = 1 << 20

// Window is one fixed-length interval of a session's retire stream,
// aggregated to instruction-mix counters. Counters classify retired
// host instructions by execution resource (darco.RetireClass); Loads,
// Stores and Taken are orthogonal slices of the same instructions.
type Window struct {
	// Index numbers windows contiguously from 0 per stream.
	Index uint64 `json:"window"`
	// StartInsn is the zero-based index, in retired host instructions
	// of this stream, of the window's first instruction.
	StartInsn uint64 `json:"start_insn"`
	// Insns is how many host instructions the window covers: exactly
	// the windower's interval, except for a shorter final window (and
	// see Windower.Sink for subscriptions made without Attach).
	Insns uint64 `json:"insns"`

	Simple  uint64 `json:"simple"`
	Complex uint64 `json:"complex"`
	Memory  uint64 `json:"memory"`
	Branch  uint64 `json:"branch"`
	Vector  uint64 `json:"vector"`

	Loads  uint64 `json:"loads"`
	Stores uint64 `json:"stores"`
	Taken  uint64 `json:"taken"`

	// Syncs counts the synchronization markers (syscalls, validations,
	// page transfers, the final sync) delivered inside the window.
	Syncs uint64 `json:"syncs"`
}

// Add accumulates w2 into w, leaving Index/StartInsn/Insns bookkeeping
// to the caller. It exists for consumers that re-window coarser.
func (w *Window) Add(w2 *Window) {
	w.Insns += w2.Insns
	w.Simple += w2.Simple
	w.Complex += w2.Complex
	w.Memory += w2.Memory
	w.Branch += w2.Branch
	w.Vector += w2.Vector
	w.Loads += w2.Loads
	w.Stores += w2.Stores
	w.Taken += w2.Taken
	w.Syncs += w2.Syncs
}

// addMix accumulates one delivery's instruction mix into the window.
func (w *Window) addMix(m *darco.RetireMix) {
	w.Insns += m.Insns
	w.Simple += m.Class[darco.RetireSimple]
	w.Complex += m.Class[darco.RetireComplex]
	w.Memory += m.Class[darco.RetireMemory]
	w.Branch += m.Class[darco.RetireBranch]
	w.Vector += m.Class[darco.RetireVector]
	w.Loads += m.Loads
	w.Stores += m.Stores
	w.Taken += m.Taken
}

// Windower aggregates a retire stream into fixed-size windows. It is
// single-goroutine, like the retire stream that feeds it: Sink and
// Flush must run on the session's goroutine. The emit callback runs
// synchronously from inside Sink, so a consumer shared across sessions
// (the daemon's per-job event fan-in) must do its own locking there.
type Windower struct {
	interval uint64
	emit     func(Window)
	cur      Window
}

// NewWindower builds a windower cutting every interval retired host
// instructions (values < 1 mean DefaultInterval). emit receives every
// completed window; call Flush after the session finishes to emit the
// final partial window.
func NewWindower(interval uint64, emit func(Window)) *Windower {
	if interval < 1 {
		interval = DefaultInterval
	}
	return &Windower{interval: interval, emit: emit}
}

// Interval reports the configured window length.
func (wd *Windower) Interval() uint64 { return wd.interval }

// Insns reports the total retired host instructions streamed so far.
func (wd *Windower) Insns() uint64 { return wd.cur.StartInsn + wd.cur.Insns }

// Attach subscribes the windower to sess with a batch size equal to
// its interval, so the session cuts a delivery exactly where each
// window ends and every window but the last covers exactly Interval
// instructions. The returned function unsubscribes.
func (wd *Windower) Attach(sess *darco.Session) (detach func()) {
	return sess.SubscribeRetires(wd.Sink, darco.WithRetireBatchSize(int(min(wd.interval, math.MaxInt))))
}

// Sink consumes one retire-stream delivery. A delivery is never split:
// the window closes at the end of the delivery that brings it to the
// interval. Under Attach that is exactly at the interval, and so it is
// for a direct Session.SubscribeRetires(wd.Sink) whose batch size
// divides the interval (the default 4096 divides DefaultInterval);
// with any other batch size a window may cover up to one batch more
// than the interval.
func (wd *Windower) Sink(b darco.RetireBatch) {
	if b.Sync != nil {
		// Markers are positioned in retire order: attribute each to the
		// window open at its position without advancing the cut point.
		wd.cur.Syncs++
		return
	}
	wd.cur.addMix(&b.Mix)
	if wd.cur.Insns >= wd.interval {
		wd.cut()
	}
}

// Flush emits the in-progress window, if it holds anything — call once
// after the session has run to completion so the stream's tail is not
// lost. A window holding only sync markers (no instructions) is
// emitted too: the final validation sync always lands after the last
// retired instruction.
func (wd *Windower) Flush() {
	if wd.cur.Insns == 0 && wd.cur.Syncs == 0 {
		return
	}
	wd.cut()
}

// cut emits the current window and opens the next one.
func (wd *Windower) cut() {
	wd.emit(wd.cur)
	next := Window{Index: wd.cur.Index + 1, StartInsn: wd.cur.StartInsn + wd.cur.Insns}
	wd.cur = next
}
