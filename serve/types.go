package serve

import "darco/internal/jobs"

// The job lifecycle's wire types live in the kernel both daemons share;
// these are this package's names for them.
type (
	// JobState is a campaign job's lifecycle state.
	JobState = jobs.JobState
	// JobStatus is the wire representation of a job's current state.
	JobStatus = jobs.JobStatus

	// SubmitRequest is the JSON body of POST /api/v1/jobs.
	SubmitRequest = jobs.SubmitRequest
	// SuiteSpec enrolls the full benchmark roster at one scale.
	SuiteSpec = jobs.SuiteSpec
	// ScenarioSpec is one workload × configuration point.
	ScenarioSpec = jobs.ScenarioSpec
	// EngineSpec selects the engine configuration for every scenario.
	EngineSpec = jobs.EngineSpec
	// TelemetrySpec configures the live instruction-mix stream.
	TelemetrySpec = jobs.TelemetrySpec

	// ScenarioEvent is the payload of one scenario-completion frame.
	ScenarioEvent = jobs.ScenarioEvent
	// TelemetryEvent is the payload of one instruction-mix window frame.
	TelemetryEvent = jobs.TelemetryEvent
	// DroppedEvent is the payload of a dropped marker.
	DroppedEvent = jobs.DroppedEvent
)

// Job lifecycle states; see darco/internal/jobs.
const (
	JobQueued      = jobs.JobQueued
	JobRunning     = jobs.JobRunning
	JobDone        = jobs.JobDone
	JobFailed      = jobs.JobFailed
	JobCancelled   = jobs.JobCancelled
	JobInterrupted = jobs.JobInterrupted
)

// Event kinds on a job's live stream; see darco/internal/jobs.
const (
	EventState     = jobs.EventState
	EventScenario  = jobs.EventScenario
	EventTelemetry = jobs.EventTelemetry
	EventDropped   = jobs.EventDropped
)

// MinTelemetryInterval is the shortest telemetry window a submission
// may ask for.
const MinTelemetryInterval = jobs.MinTelemetryInterval
