package jobs

import (
	"darco/export"
	"darco/internal/stream"
	"darco/telemetry"
)

// Event kinds on a job's live stream. The fan-out machinery itself —
// broadcaster, replay ring, loss markers, SSE/NDJSON framing — lives
// in darco/internal/stream; the coordinator re-multiplexes these same
// frame shapes for federated jobs.
const (
	// EventState carries a JobStatus snapshot; emitted on every state
	// transition, as the first frame of every stream, and as the final
	// frame before the stream ends. State events are idempotent
	// snapshots — consumers may see the same state more than once.
	EventState = "state"
	// EventScenario carries a ScenarioEvent as each scenario finishes.
	EventScenario = "scenario"
	// EventTelemetry carries a TelemetryEvent per completed
	// instruction-mix window of an in-flight scenario.
	EventTelemetry = "telemetry"
	// EventDropped carries a DroppedEvent wherever the stream lost
	// frames: a subscriber that could not drain fast enough, or a
	// replay window that no longer reaches back to the job's start.
	// Consumers see exactly where the gap is and how big it was,
	// instead of a silent skip.
	EventDropped = stream.KindDropped
)

// ScenarioEvent is the payload of one scenario-completion frame: the
// same deterministic export row the CSV/NDJSON exporters write, plus
// the scenario's index in campaign order. Rows arrive in completion
// order; reorder on Index if scenario order matters.
type ScenarioEvent struct {
	Job   string     `json:"job"`
	Index int        `json:"scenario_index"`
	Row   export.Row `json:"row"`
}

// TelemetryEvent is the payload of one instruction-mix window frame.
type TelemetryEvent struct {
	Job      string           `json:"job"`
	Index    int              `json:"scenario_index"`
	Scenario string           `json:"scenario"`
	Window   telemetry.Window `json:"window"`
}

// DroppedEvent is the payload of a dropped marker: how many frames are
// missing at this point of the stream.
type DroppedEvent = stream.DroppedEvent
