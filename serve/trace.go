package serve

import (
	"time"

	darco "darco"
	"darco/internal/jobs"
	"darco/obs"
)

// scenarioSpans records one finished scenario's span and its phase
// children under the job's run span. The scenario span covers the
// scenario's own wall window ending now; the phases partition it
// front-to-back: warmup (image generation and session construction —
// everything before emulation) and emulate (the controller's run loop).
// Under emulate, catch-up is the part of it spent waiting for the
// authoritative component: a total over many joins and catch-ups, drawn
// at the phase's front and journaled inside the phase's record.
func (s *runner) scenarioSpans(j *jobs.Job, sr *darco.ScenarioResult, end time.Time) {
	start := end.Add(-sr.Wall)
	name := sr.Scenario.Name
	if name == "" {
		name = sr.Scenario.Profile.Name
	}
	sp := obs.NewSpan(j.TraceID, j.RunSpan(), "scenario "+name, s.opts.WorkerID, start, end)
	sp.SetAttr("profile", sr.Scenario.Profile.Name)
	if sr.Err != nil {
		sp.SetAttr("error", sr.Err.Error())
	}
	j.RecordSpan(sp)
	if sr.Result == nil {
		return
	}
	cursor := start
	phase := func(name string, d, catchUp time.Duration) {
		if d <= 0 {
			return
		}
		ph := obs.NewSpan(j.TraceID, sp.SpanID, name, s.opts.WorkerID, cursor, cursor.Add(d))
		var within []obs.Span
		if catchUp > 0 {
			within = append(within, obs.NewSpan(j.TraceID, ph.SpanID, "catch-up", s.opts.WorkerID, cursor, cursor.Add(catchUp)))
		}
		j.RecordSpan(ph, within...)
		cursor = cursor.Add(d)
	}
	phase("warmup", sr.Wall-sr.Result.Wall, 0)
	phase("emulate", sr.Result.Phases.Emulate, sr.Result.Phases.CatchUp)
}
