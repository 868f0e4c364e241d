package darco

import (
	"fmt"
	"strings"
	"time"

	"darco/internal/power"
	"darco/internal/timing"
	"darco/internal/tol"
	"darco/obs"
)

// Config configures one DARCO run. The timing and power simulators are
// optional and do not affect functionality (paper §V).
//
// Config remains the base configuration an Engine is built from; prefer
// assembling it through NewEngine's functional options (WithTOL,
// WithTiming, WithPower, ...) in new code.
type Config struct {
	TOL tol.Config

	// Timing, when non-nil, attaches the in-order timing simulator to
	// the co-designed component's retired host instruction stream.
	Timing *timing.Config

	// Power, when non-nil (and Timing enabled), attaches the
	// event-energy power model at the given core frequency.
	Power   *power.Energies
	FreqMHz float64

	// ValidateEveryNSyncs compares co-designed vs authoritative state
	// at every Nth synchronization in addition to the end of the
	// application (0 disables periodic validation).
	ValidateEveryNSyncs int

	// MaxGuestInsns aborts runaway programs (0 = unlimited).
	MaxGuestInsns uint64
}

// DefaultConfig is a functional-only run with paper-default TOL
// parameters and per-syscall validation.
//
// New code should not need it: a zero-option NewEngine() builds the
// same stack, and WithTOL/WithTiming/WithPower/WithValidation express
// every refinement. DefaultConfig remains supported as the base value
// for code that assembles a Config to pass through WithConfig.
func DefaultConfig() Config {
	return Config{TOL: tol.DefaultConfig(), ValidateEveryNSyncs: 1}
}

// TimingConfig returns a config with the timing simulator attached.
func TimingConfig() Config {
	c := DefaultConfig()
	tc := timing.DefaultConfig()
	c.Timing = &tc
	return c
}

// Result reports everything a run produced.
type Result struct {
	Stats    tol.Stats
	Overhead tol.Overhead

	HostAppInsns uint64 // host instructions emulating the application
	HostInsns    uint64 // including TOL overhead

	Output   []byte // guest program output (write syscalls)
	ExitCode int32

	Wall time.Duration

	// GuestMIPS/HostMIPS are emulation speeds (millions of guest/host
	// instructions per wall second), the paper's Table of §VI-A.
	GuestMIPS float64
	HostMIPS  float64

	Timing *timing.Stats
	Core   *timing.Core // full simulator state for detailed inspection
	Power  *power.Report

	Validations   uint64
	PageTransfers uint64
	SyscallSyncs  uint64

	// Obs is a snapshot of the engine's profiling counters at the time
	// of this result; nil unless WithObsCounters attached them. When the
	// counters instance is shared (the serve daemon attaches one per
	// process), the snapshot is cumulative across everything it covers,
	// not per-session.
	Obs *obs.EngineCountersSnapshot

	// Phases splits the session wall time: Emulate is the time inside
	// the controller's run loop, CatchUp the part of it the session
	// spent waiting for the authoritative component to catch up with
	// the co-designed one. The serve tier turns these into per-scenario
	// phase spans.
	Phases PhaseTimings
}

// PhaseTimings is a session's wall-time attribution across execution
// phases. CatchUp is time waited, not work done: the authoritative
// component runs beside the co-designed one between synchronizations,
// and only what a synchronization (or a check-interval tick) still had
// to wait for, or run itself, is counted.
type PhaseTimings struct {
	Emulate time.Duration `json:"emulate,omitempty"`
	CatchUp time.Duration `json:"catch_up,omitempty"` // within Emulate
}

// EmulationCostSBM reports host instructions per guest instruction in
// superblock mode (the paper's Fig. 5 metric).
func (r *Result) EmulationCostSBM() float64 {
	if r.Stats.GuestInsnsSBM == 0 {
		return 0
	}
	return float64(r.Stats.HostInsnsSBM) / float64(r.Stats.GuestInsnsSBM)
}

// TOLOverheadFrac reports the TOL share of the host dynamic instruction
// stream (Fig. 6).
func (r *Result) TOLOverheadFrac() float64 {
	total := r.HostAppInsns + r.Overhead.Total()
	if total == 0 {
		return 0
	}
	return float64(r.Overhead.Total()) / float64(total)
}

// ModeShares reports the dynamic guest instruction split across IM, BBM
// and SBM (Fig. 4).
func (r *Result) ModeShares() (im, bbm, sbm float64) {
	total := float64(r.Stats.GuestInsns())
	if total == 0 {
		return
	}
	return float64(r.Stats.GuestInsnsIM) / total,
		float64(r.Stats.GuestInsnsBBM) / total,
		float64(r.Stats.GuestInsnsSBM) / total
}

// Summary renders a human-readable run report.
func (r *Result) Summary() string {
	var b strings.Builder
	im, bbm, sbm := r.ModeShares()
	fmt.Fprintf(&b, "guest insns   %d (IM %.1f%%, BBM %.1f%%, SBM %.1f%%)\n",
		r.Stats.GuestInsns(), 100*im, 100*bbm, 100*sbm)
	fmt.Fprintf(&b, "host insns    %d app + %d TOL (overhead %.1f%%)\n",
		r.HostAppInsns, r.Overhead.Total(), 100*r.TOLOverheadFrac())
	fmt.Fprintf(&b, "emulation     %.2f host/guest in SBM\n", r.EmulationCostSBM())
	fmt.Fprintf(&b, "translations  %d BB, %d SB (%d unrolled, %d/%d rebuilds)\n",
		r.Stats.BBTranslations, r.Stats.SBTranslations, r.Stats.UnrolledLoops,
		r.Stats.AssertRebuilds, r.Stats.SpecRebuilds)
	fmt.Fprintf(&b, "speed         %.2f guest MIPS, %.2f host MIPS\n", r.GuestMIPS, r.HostMIPS)
	if r.Timing != nil {
		fmt.Fprintf(&b, "timing        %d cycles, IPC %.3f, bpred %.2f%%, L1D miss %.2f%%\n",
			r.Timing.Cycles, r.Timing.IPC(), 100*r.Core.BP.Accuracy(), 100*r.Core.L1D.MissRate())
	}
	if r.Power != nil {
		fmt.Fprintf(&b, "power         %s\n", r.Power)
	}
	return b.String()
}
