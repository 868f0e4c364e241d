package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	darco "darco"
	"darco/internal/power"
	"darco/internal/timing"
	"darco/internal/workload"
)

// SubmitRequest is the JSON body of POST /api/v1/jobs: the scenario
// roster (a whole-suite sweep, an explicit scenario list, or both
// concatenated — suite first), campaign execution knobs, and optional
// engine and telemetry configuration. Unknown fields are rejected so a
// typo'd knob fails the submit instead of silently running defaults.
type SubmitRequest struct {
	// Name labels the job in statuses and listings.
	Name string `json:"name,omitempty"`

	// Suite, when non-nil, enrolls the paper's full 31-benchmark
	// roster at the given scale.
	Suite *SuiteSpec `json:"suite,omitempty"`

	// Scenarios enrolls explicit workload × scale points.
	Scenarios []ScenarioSpec `json:"scenarios,omitempty"`

	// Parallelism bounds the campaign's worker pool (0 = server
	// default; the server additionally caps it at its configured
	// per-job maximum).
	Parallelism int `json:"parallelism,omitempty"`

	// ScenarioTimeoutMS cancels any single scenario running longer
	// than this many milliseconds (0 = none).
	ScenarioTimeoutMS int64 `json:"scenario_timeout_ms,omitempty"`

	// FailFast cancels the rest of the campaign when one scenario
	// fails.
	FailFast bool `json:"fail_fast,omitempty"`

	Engine    *EngineSpec    `json:"engine,omitempty"`
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
}

// SuiteSpec enrolls the full benchmark roster at one scale.
type SuiteSpec struct {
	// Scale is the workload dynamic-size factor (0 = 1.0).
	Scale float64 `json:"scale,omitempty"`
}

// ScenarioSpec is one workload × configuration point.
type ScenarioSpec struct {
	// Profile names a workload from the paper's roster (e.g.
	// "429.mcf"); see GET /api/v1/profiles for the list.
	Profile string `json:"profile"`
	// Scale is the workload dynamic-size factor (0 = 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Name labels the scenario in results (default: the profile name).
	Name string `json:"name,omitempty"`
}

// EngineSpec selects the engine configuration for every scenario of
// the job. Nil/zero fields keep the paper defaults, so {} (or omitting
// the whole object) runs the stock functional stack.
type EngineSpec struct {
	// BBThreshold / SBThreshold are the TOL promotion thresholds
	// (interpretations before BB translation, BBM executions before
	// superblock promotion).
	BBThreshold *uint32 `json:"bb_threshold,omitempty"`
	SBThreshold *uint64 `json:"sb_threshold,omitempty"`

	// DisableChaining and EagerFlags are the paper's ablation toggles.
	DisableChaining bool `json:"disable_chaining,omitempty"`
	EagerFlags      bool `json:"eager_flags,omitempty"`

	// ValidateEveryNSyncs compares co-designed vs authoritative state
	// at every Nth synchronization (nil = paper default of 1, 0
	// disables periodic validation).
	ValidateEveryNSyncs *int `json:"validate_every_n_syncs,omitempty"`

	// MaxGuestInsns aborts runaway scenarios (0 = unlimited).
	MaxGuestInsns uint64 `json:"max_guest_insns,omitempty"`

	// Timing attaches the in-order timing simulator; Power
	// additionally attaches the power model (implies Timing) at
	// FreqMHz (0 = 1000).
	Timing  bool    `json:"timing,omitempty"`
	Power   bool    `json:"power,omitempty"`
	FreqMHz float64 `json:"freq_mhz,omitempty"`

	// Obs attaches the daemon's shared hot-path profiling counters
	// (decode/block cache hits, code-cache flushes) to the job's
	// engine; they surface in the daemon's /metrics under
	// darco_engine_*. Off by default — the instrumented paths then cost
	// one predictable branch per site.
	Obs bool `json:"obs,omitempty"`
}

// TelemetrySpec configures the live instruction-mix stream. Telemetry
// is on by default: each running scenario's session counts its
// retirement mix in the host VM's dispatch loop, which costs a job
// about 1.1× the wall of the same campaign run bare (measured by the
// repository benchmark's serve.overhead_x on every workload), plus one
// journaled and published window per interval.
type TelemetrySpec struct {
	Disable bool `json:"disable,omitempty"`
	// IntervalInsns is the window length in retired host instructions
	// (0 = telemetry.DefaultInterval). A new submission below
	// MinTelemetryInterval is rejected (see Validate).
	IntervalInsns uint64 `json:"interval_insns,omitempty"`
}

// MinTelemetryInterval is the shortest telemetry window a submission
// may ask for. Every window is journaled and published, so without a
// floor one request could make a daemon write a record per retired
// host instruction.
const MinTelemetryInterval = 1024

// ParseSubmit decodes a submission body without validating it against
// any daemon's limits — the syntactic half of a Runner's Validate, and
// all the recovery path needs to label a restored job's rows.
func ParseSubmit(raw []byte) (*SubmitRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	// Exactly one JSON value: trailing garbage would parse here but
	// poison the journaled raw body (a json.RawMessage must be valid
	// JSON), so it is rejected before the job can be accepted.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("invalid request body: trailing data after the JSON object")
	}
	return &req, nil
}

// Roster expands the request's suite and explicit scenario list into
// the campaign roster, in campaign (scenario) order, validating
// profiles and scales. The coordinator shards this same expansion, so
// a scenario's position here is its global index in a federated run —
// the order every export format is keyed on.
func (req *SubmitRequest) Roster() ([]darco.Scenario, error) {
	var out []darco.Scenario
	if req.Suite != nil {
		if req.Suite.Scale < 0 {
			return nil, fmt.Errorf("suite scale %g is negative", req.Suite.Scale)
		}
		out = append(out, darco.SuiteScenarios(req.Suite.Scale)...)
	}
	for i, sc := range req.Scenarios {
		p, ok := workload.ByName(sc.Profile)
		if !ok {
			return nil, fmt.Errorf("scenario %d: unknown profile %q", i, sc.Profile)
		}
		if sc.Scale < 0 {
			return nil, fmt.Errorf("scenario %d: scale %g is negative", i, sc.Scale)
		}
		out = append(out, darco.Scenario{Name: sc.Name, Profile: p, Scale: sc.Scale})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios: set \"suite\" and/or \"scenarios\"")
	}
	return out, nil
}

// Validate checks a parsed submission against a daemon's limits and
// compiles its two products: the campaign roster and a ready engine,
// built from the request's engine section plus the caller's extra
// options. A daemon that only forwards the job still wants to know an
// engine can be built: a misconfigured sweep then fails the submit, not
// every placement. The telemetry interval floor applies to new
// submissions only — with restored set (a body read back from the
// journal of a daemon that had no floor) a shorter interval is raised
// to MinTelemetryInterval instead of refused, so an accepted job is
// never lost to an upgrade.
func (req *SubmitRequest) Validate(maxScenarios int, restored bool, extra ...darco.Option) ([]darco.Scenario, *darco.Engine, error) {
	if t := req.Telemetry; t != nil && t.IntervalInsns != 0 && t.IntervalInsns < MinTelemetryInterval {
		if !restored {
			return nil, nil, fmt.Errorf("telemetry interval_insns %d is below the minimum of %d", t.IntervalInsns, MinTelemetryInterval)
		}
		t.IntervalInsns = MinTelemetryInterval
	}
	roster, err := req.Roster()
	if err != nil {
		return nil, nil, err
	}
	if maxScenarios > 0 && len(roster) > maxScenarios {
		return nil, nil, fmt.Errorf("%d scenarios exceed the server limit of %d", len(roster), maxScenarios)
	}
	if req.Parallelism < 0 {
		return nil, nil, fmt.Errorf("parallelism %d is negative", req.Parallelism)
	}
	if req.ScenarioTimeoutMS < 0 {
		return nil, nil, fmt.Errorf("scenario_timeout_ms %d is negative", req.ScenarioTimeoutMS)
	}
	opts, err := req.Engine.Options()
	if err != nil {
		return nil, nil, err
	}
	eng, err := darco.NewEngine(append(opts, extra...)...)
	if err != nil {
		return nil, nil, fmt.Errorf("engine configuration: %w", err)
	}
	return roster, eng, nil
}

// Options compiles the spec (nil = all defaults) to engine options.
func (e *EngineSpec) Options() ([]darco.Option, error) {
	if e == nil {
		return nil, nil
	}
	tc := darco.DefaultConfig().TOL
	if e.BBThreshold != nil {
		tc.BBThreshold = *e.BBThreshold
	}
	if e.SBThreshold != nil {
		tc.SBThreshold = *e.SBThreshold
	}
	tc.DisableChaining = e.DisableChaining
	tc.EagerFlags = e.EagerFlags
	opts := []darco.Option{darco.WithTOL(tc)}

	if e.ValidateEveryNSyncs != nil {
		if *e.ValidateEveryNSyncs < 0 {
			return nil, fmt.Errorf("validate_every_n_syncs %d is negative", *e.ValidateEveryNSyncs)
		}
		opts = append(opts, darco.WithValidation(*e.ValidateEveryNSyncs))
	}
	if e.MaxGuestInsns > 0 {
		opts = append(opts, darco.WithMaxGuestInsns(e.MaxGuestInsns))
	}
	if e.Timing || e.Power {
		opts = append(opts, darco.WithTiming(timing.DefaultConfig()))
	}
	if e.Power {
		freq := e.FreqMHz
		if freq == 0 {
			freq = 1000
		}
		opts = append(opts, darco.WithPower(power.DefaultEnergies(), freq))
	}
	return opts, nil
}
