package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	darco "darco"
	"darco/export"
	"darco/obs"
	"darco/telemetry"
)

// stepInsns is the slice a traced session advances by: the engine's own
// excursion bound, so a slice is what the controller runs between two
// cancellation checks.
const stepInsns = darco.DefaultCheckInterval

// env is everything one set-up builds and the timed passes run against.
type env struct {
	w  workloadDef
	or *oracle

	programs []program
	byName   map[string]*program // campaign workloads: scenario name -> program
	eng      *darco.Engine       // session engine of the bare pass
	counters *obs.EngineCounters
	trEng    *darco.Engine // the same engine with counters, for the traced pass

	// The job roster in its three forms: request bodies for the daemons
	// and scenarios plus engine for the bare campaign they are compared to.
	body      []byte
	bodyNoTel []byte
	scenarios []darco.Scenario
	jobEng    *darco.Engine
	refCSV    []byte

	tmp string
	d   *daemons
}

// setUp builds an env: images and their guestvm reference outputs,
// engines, daemons with their stores, and the reference bare campaign the
// tiers' exports are compared to.
func setUp(w workloadDef, seed uint64, quick bool, tmpRoot string, or *oracle) (e *env, err error) {
	e = &env{w: w, or: or, byName: map[string]*program{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.programs, err = w.buildPrograms(seed, quick); err != nil {
		return e, err
	}
	for i := range e.programs {
		e.byName[e.programs[i].profile.Name] = &e.programs[i]
	}
	if e.eng, err = darco.NewEngine(w.engineOptions()...); err != nil {
		return e, err
	}
	e.counters = &obs.EngineCounters{}
	if e.trEng, err = darco.NewEngine(append(w.engineOptions(), darco.WithObsCounters(e.counters))...); err != nil {
		return e, err
	}

	req := w.jobRequest(seed, quick, false)
	if e.body, err = json.Marshal(req); err != nil {
		return e, err
	}
	if e.bodyNoTel, err = json.Marshal(w.jobRequest(seed, quick, true)); err != nil {
		return e, err
	}
	if e.scenarios, err = req.Roster(); err != nil {
		return e, err
	}
	opts, err := req.Engine.Options()
	if err != nil {
		return e, err
	}
	if e.jobEng, err = darco.NewEngine(opts...); err != nil {
		return e, err
	}

	if e.tmp, err = os.MkdirTemp(tmpRoot, "run-"); err != nil {
		return e, err
	}
	if e.d, err = startDaemons(e.tmp); err != nil {
		return e, err
	}

	rep, csv, _, err := e.bareCampaign(e.jobEng, nil, 0)
	if err != nil {
		return e, err
	}
	if err := rep.Err(); err != nil {
		return e, fmt.Errorf("reference bare campaign: %w", err)
	}
	e.refCSV = csv
	return e, nil
}

// close tears the set-up down: daemons stopped, stores closed, temp
// directories removed.
func (e *env) close() error {
	var err error
	if e.d != nil {
		err = e.d.close()
		e.d = nil
	}
	if e.tmp != "" {
		if rmErr := os.RemoveAll(e.tmp); err == nil {
			err = rmErr
		}
		e.tmp = ""
	}
	return err
}

// bareCampaign runs the job roster through Engine.RunCampaign and renders
// the CSV a darco-bench user would write: the reference the tiers are
// compared to.
func (e *env) bareCampaign(eng *darco.Engine, tr *tracer, parent spanRef) (*darco.CampaignReport, []byte, time.Duration, error) {
	t0 := time.Now()
	sp := tr.begin(parent, "darco.RunCampaign", "darco")
	opts := []darco.CampaignOption{darco.WithParallelism(jobParallelism)}
	if tr != nil {
		opts = append(opts, darco.WithScenarioDone(func(i int, sr *darco.ScenarioResult) {
			end := time.Now()
			tr.attr(tr.add(sp, "scenario", "darco", end.Add(-sr.Wall), end), "program", sr.Scenario.Profile.Name)
		}))
	}
	rep, err := eng.RunCampaign(context.Background(), e.scenarios, opts...)
	tr.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	sp = tr.begin(parent, "export.WriteCSV", "export")
	var buf bytes.Buffer
	err = export.WriteCSV(&buf, rep)
	tr.end(sp)
	return rep, buf.Bytes(), time.Since(t0), err
}

// roundStats is what one bare round did, summed over its sessions: the
// exact counts the per-layer set reports.
type roundStats struct {
	wall time.Duration // sum of the round's operation walls

	guestInsns, hostAppInsns, tolInsns               uint64
	im, bbm, sbm, hostSBM                            uint64
	dispatches, bbTrans, sbTrans, assertReb, specReb uint64
	syscallSyncs, validations, pageTransfers         uint64
	decodeHits, decodeMisses, blockHits, blockMisses uint64
	codeFlushes                                      uint64
}

func (rs *roundStats) add(res *darco.Result) {
	s := &res.Stats
	rs.guestInsns += s.GuestInsns()
	rs.hostAppInsns += res.HostAppInsns
	rs.tolInsns += res.Overhead.Total()
	rs.im += s.GuestInsnsIM
	rs.bbm += s.GuestInsnsBBM
	rs.sbm += s.GuestInsnsSBM
	rs.hostSBM += s.HostInsnsSBM
	rs.dispatches += s.Dispatches
	rs.bbTrans += s.BBTranslations
	rs.sbTrans += s.SBTranslations
	rs.assertReb += s.AssertRebuilds
	rs.specReb += s.SpecRebuilds
	rs.syscallSyncs += res.SyscallSyncs
	rs.validations += res.Validations
	rs.pageTransfers += res.PageTransfers
}

// counts is the comparable part of roundStats: two rounds of the same
// roster must agree on it exactly.
func (rs *roundStats) counts() roundStats {
	c := *rs
	c.wall = 0
	return c
}

// bareRound runs every program of the roster once on a fresh session (or,
// for a campaign workload, the roster as one campaign plus its CSV) and
// hands every result to the oracle after the clock has stopped. With a
// tracer the sessions are stepped and the engine carries counters. walls
// holds the wall of each timed operation: one per session, or the one
// campaign. clock samples the host between the operations.
func (e *env) bareRound(tr *tracer, clock *hostClock) (rs roundStats, walls []time.Duration) {
	tr.newTrace()
	round := tr.begin(0, "round", "benchmark")
	defer tr.end(round)
	eng, campaignEng := e.eng, e.jobEng
	var counted obs.EngineCountersSnapshot
	if tr != nil {
		eng, campaignEng = e.trEng, e.trEng
		counted = e.counters.Snapshot()
	}
	clock.sample()
	if e.w.campaign {
		rep, csv, wall, err := e.bareCampaign(campaignEng, tr, round)
		rs.wall, walls = wall, []time.Duration{wall}
		if err != nil {
			e.or.failOp("bare campaign: %v", err)
			return rs, walls
		}
		for i := range rep.Results {
			sr := &rep.Results[i]
			e.or.session(e.byName[sr.Scenario.Profile.Name], sr.Result, sr.Err)
			if sr.Result != nil {
				rs.add(sr.Result)
			}
		}
		if !bytes.Equal(csv, e.refCSV) {
			e.or.failOp("bare campaign CSV changed between rounds")
		}
	} else {
		results := make([]*darco.Result, len(e.programs))
		errs := make([]error, len(e.programs))
		walls = make([]time.Duration, len(e.programs))
		for i := range e.programs {
			t0 := time.Now()
			if tr == nil {
				results[i], errs[i] = eng.Run(context.Background(), e.programs[i].image)
			} else {
				sp := tr.begin(round, "scenario", "benchmark")
				tr.attr(sp, "program", e.programs[i].id)
				results[i], errs[i] = steppedSession(eng, &e.programs[i], tr, sp, nil)
				tr.end(sp)
			}
			walls[i] = time.Since(t0)
			rs.wall += walls[i]
			clock.sample()
		}
		for i := range e.programs {
			e.or.session(&e.programs[i], results[i], errs[i])
			if results[i] != nil {
				rs.add(results[i])
			}
		}
	}
	if tr != nil {
		d := e.counters.Delta(counted)
		rs.decodeHits, rs.decodeMisses = d.DecodeHits, d.DecodeMisses
		rs.blockHits, rs.blockMisses, rs.codeFlushes = d.BlockHits, d.BlockMisses, d.CodeFlushes
	}
	return rs, walls
}

// steady accumulates the slices of stepped sessions in which nothing was
// translated or rebuilt and at most 1% of the guest instructions were
// interpreted (the fallback after a failed assert): translated code
// executing in hostvm, with the dispatch that slice contained.
type steady struct {
	hostInsns uint64
	wall      time.Duration
}

// steppedSession runs one program on a fresh session in stepInsns slices,
// recording a span per slice ("step[steady]" by the rule above,
// "step[warm]" otherwise) and returning the final snapshot.
func steppedSession(eng *darco.Engine, p *program, tr *tracer, parent spanRef, st *steady) (*darco.Result, error) {
	ctx := context.Background()
	sp := tr.begin(parent, "darco.NewSession", "darco")
	sess, err := eng.NewSession(p.image)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var prev darco.Result
	for !sess.Done() {
		t0 := time.Now()
		res, err := sess.Step(ctx, stepInsns)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		a, b := &res.Stats, &prev.Stats
		name := "step[warm]"
		if 100*(a.GuestInsnsIM-b.GuestInsnsIM) <= a.GuestInsns()-b.GuestInsns() &&
			a.BBTranslations == b.BBTranslations && a.SBTranslations == b.SBTranslations &&
			a.AssertRebuilds == b.AssertRebuilds && a.SpecRebuilds == b.SpecRebuilds {
			name = "step[steady]"
			if st != nil {
				st.hostInsns += res.HostAppInsns - prev.HostAppInsns
				st.wall += t1.Sub(t0)
			}
		}
		tr.add(parent, name, "darco", t0, t1)
		prev = *res
	}
	sp = tr.begin(parent, "snapshot", "darco")
	res := sess.Snapshot()
	tr.end(sp)
	return res, nil
}

// bareJob runs the job roster as a bare campaign with its CSV, judges the
// outcome like a tier's, and returns the wall.
func (e *env) bareJob() time.Duration {
	_, csv, wall, err := e.bareCampaign(e.jobEng, nil, 0)
	e.or.job("bare", csv, err, e.refCSV)
	return wall
}

// servedJob submits body to the served daemon and judges the outcome.
func (e *env) servedJob(body []byte, tr *tracer) jobRun {
	tr.newTrace()
	sp := tr.begin(0, "job served", "benchmark")
	run, err := runJob(e.d.client, e.d.served.url, body, tr, sp)
	tr.end(sp)
	e.or.job("served", run.csv, err, e.refCSV)
	return run
}

// federatedJob submits the default body to the coordinator.
func (e *env) federatedJob(tr *tracer) jobRun {
	tr.newTrace()
	sp := tr.begin(0, "job federated", "benchmark")
	run, err := runJob(e.d.client, e.d.coord.url, e.body, tr, sp)
	tr.end(sp)
	e.or.job("federated", run.csv, err, e.refCSV)
	return run
}

// telemetrySession runs p to completion with the served tier's retire
// subscription attached: a windower at the default interval whose windows
// go nowhere.
func telemetrySession(eng *darco.Engine, p *program) (time.Duration, error) {
	t0 := time.Now()
	sess, err := eng.NewSession(p.image)
	if err != nil {
		return 0, err
	}
	wd := telemetry.NewWindower(telemetry.DefaultInterval, func(telemetry.Window) {})
	sess.SubscribeRetires(wd.Sink)
	if _, err := sess.Run(context.Background()); err != nil {
		return 0, err
	}
	wd.Flush()
	return time.Since(t0), nil
}
