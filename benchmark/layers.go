package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	darco "darco"
	"darco/export"
	"darco/internal/codecache"
	"darco/internal/controller"
	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/host"
	"darco/internal/hostvm"
	"darco/internal/timing"
	"darco/internal/tol"
	"darco/perf"
)

// The replay harness: after the traced rounds, each layer is driven alone
// through its exported API on the probe programs, so a change to one
// layer moves its own row. Nothing here reaches inside the engine.

// replayEventCap bounds the retire events captured for the timing replay
// (16 bytes each), and interpCap the guest instructions the
// interpreter-only probe executes per program.
const (
	replayEventCap = 2 << 20
	interpCap      = 1 << 20
)

// samples collects one value per probe iteration for each metric.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// probes is the replay harness's state for one workload.
type probes struct {
	e      *env
	progs  []*program    // one program per profile of the roster
	fnEng  *darco.Engine // functional engine, whatever the workload attaches
	tmEng  *darco.Engine // the same with darco.TimingConfig
	cfg    tol.Config
	s      samples // layer metrics, one value per iteration
	quick  bool
	clock  *hostClock // the host's speed while the probes ran
	tols   []*tol.TOL // finished standalone TOL runs, one per probe program
	events []replayEvent
}

func newProbes(e *env, quick bool) (*probes, error) {
	p := &probes{e: e, s: samples{}, quick: quick, cfg: darco.DefaultConfig().TOL, clock: newHostClock()}
	seen := map[string]bool{}
	for i := range e.programs {
		if name := e.programs[i].profile.Name; !seen[name] {
			seen[name] = true
			p.progs = append(p.progs, &e.programs[i])
		}
	}
	var err error
	if p.fnEng, err = darco.NewEngine(); err != nil {
		return nil, err
	}
	p.tmEng, err = darco.NewEngine(darco.WithConfig(darco.TimingConfig()))
	return p, err
}

// run gives every probe an equal slice of budget and at least one
// iteration, in an order that lets later probes reuse earlier state.
func (p *probes) run(budget time.Duration) error {
	list := []struct {
		name string
		fn   func() error
	}{
		{"whole", p.whole},
		{"generate", p.generate},
		{"decode", p.decode},
		{"retire-hook", p.retireHook},
		{"interp", p.interpOnly},
		{"translate", p.translate},
		{"ir", p.irPasses},
		{"codecache", p.codecache},
		{"controller", p.validate},
		{"timing", p.timingReplay},
		{"session-new", p.sessionNew},
		{"steady", p.steadySlices},
		{"telemetry", p.telemetry},
		{"export", p.exports},
	}
	slice := budget / time.Duration(len(list))
	for _, pr := range list {
		t0 := time.Now()
		for {
			p.s.add("benchmark.host_factor_x", p.clock.sample())
			if err := pr.fn(); err != nil {
				return fmt.Errorf("probe %s: %w", pr.name, err)
			}
			if p.quick || time.Since(t0) >= slice {
				break
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// whole runs each probe program three ways back to back — as the bare
// pass does, on a standalone guestvm, on a standalone TOL — so that the
// shares are taken between walls the same state of the host produced. The
// first program also runs with (or, on a timing workload, without) the
// timing simulator.
func (p *probes) whole() error {
	run := func(eng *darco.Engine, pr *program) (time.Duration, error) {
		t0 := time.Now()
		_, err := eng.Run(context.Background(), pr.image)
		return time.Since(t0), err
	}
	var sess, fn, guestWall, tolWall time.Duration
	var guestInsns, tolInsns uint64
	tols := make([]*tol.TOL, 0, len(p.progs))
	for i, pr := range p.progs {
		bare, err := run(p.e.eng, pr)
		if err != nil {
			return err
		}
		functional, timed := bare, bare
		switch {
		case p.e.w.timing:
			functional, err = run(p.fnEng, pr)
		case i == 0:
			timed, err = run(p.tmEng, pr)
		}
		if err != nil {
			return err
		}
		sess += bare
		fn += functional
		if i == 0 {
			p.s.add("timing.share_of_wall", 100*(1-float64(functional)/float64(timed)))
		}

		out, w, n, err := runGuestVM(pr.image)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, pr.output) {
			return fmt.Errorf("%s: guestvm output changed", pr.id)
		}
		guestWall += w
		guestInsns += n

		t, out, w, err := runTOL(pr.image, p.cfg, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", pr.id, err)
		}
		if !bytes.Equal(out, pr.output) {
			return fmt.Errorf("%s: standalone TOL output differs from guestvm's", pr.id)
		}
		tolWall += w
		tolInsns += t.Stats.GuestInsns()
		tols = append(tols, t)
	}
	p.tols = tols
	p.s.add("guestvm.run_mips", float64(guestInsns)/guestWall.Seconds()/1e6)
	p.s.add("guestvm.share_of_wall", 100*float64(guestWall)/float64(sess))
	p.s.add("tol.run_mips", float64(tolInsns)/tolWall.Seconds()/1e6)
	p.s.add("tol.share_of_wall", 100*float64(tolWall)/float64(sess))
	p.s.add("controller.residual_ms", ms(fn-tolWall-guestWall))
	return nil
}

func (p *probes) generate() error {
	t0 := time.Now()
	for i := range p.e.programs {
		if _, err := p.e.programs[i].profile.Generate(); err != nil {
			return err
		}
	}
	p.s.add("workload.generate_ms", ms(time.Since(t0)))
	return nil
}

// decode sweeps guest.Decode over every segment that decodes from its
// first byte to its last (the code segments).
func (p *probes) decode() error {
	var n int
	t0 := time.Now()
	for _, pr := range p.progs {
		for _, seg := range pr.image.Segments {
			k := 0
			for off := 0; off < len(seg.Data); {
				_, size := guest.Decode(seg.Data[off:])
				if size == 0 {
					k = 0 // a data segment: not counted
					break
				}
				off += size
				k++
			}
			n += k
		}
	}
	if n == 0 {
		return fmt.Errorf("no decodable code segment")
	}
	p.s.add("guest.decode_ns_per_insn", float64(time.Since(t0))/float64(n))
	return nil
}

// runTOL executes an image on the co-designed side alone: the whole image
// preloaded into non-strict memory, so no controller, no page transfer and
// no authoritative VM. Syscalls are serviced in place the way the
// authoritative emulator does. maxInsns > 0 stops after that many guest
// instructions.
func runTOL(im *guest.Image, cfg tol.Config, retire func(hostvm.RetireEvent), maxInsns uint64) (*tol.TOL, []byte, time.Duration, error) {
	t0 := time.Now()
	t := tol.New(cfg)
	t.Mem.Strict = false
	if err := t.Mem.LoadImage(im); err != nil {
		return nil, nil, 0, err
	}
	t.CPU.EIP = im.Entry
	t.CPU.R[guest.ESP] = guestvm.StackTop
	t.VM.Retire = retire
	env := guestvm.NewEnv()
	for !t.Halted() {
		var budget uint64
		if maxInsns > 0 {
			done := t.Stats.GuestInsns()
			if done >= maxInsns {
				break
			}
			budget = maxInsns - done
		}
		res, err := t.Run(budget)
		if err != nil {
			return nil, nil, 0, err
		}
		switch res.Event {
		case tol.EvSyscall:
			in, err := t.Fetch(t.CPU.EIP)
			if err != nil {
				return nil, nil, 0, err
			}
			if _, err := guest.Step(&t.CPU, t.Mem, &in); err != nil {
				return nil, nil, 0, err
			}
			if err := env.Service(&t.CPU, t.Mem); err != nil {
				return nil, nil, 0, err
			}
			t.Stats.GuestInsnsIM++
			t.Stats.GuestBBs++
			t.ClearMidBB()
			if env.Exited {
				t.SetHalted()
			}
		case tol.EvNeedPage:
			return nil, nil, 0, fmt.Errorf("standalone TOL faulted at %#x", res.FaultAddr)
		}
	}
	return t, env.Output, time.Since(t0), nil
}

// retireHook runs the standalone TOL without and then with a no-op retire
// consumer attached; the difference is what materialising and delivering
// one event per host instruction costs.
func (p *probes) retireHook() error {
	var plain, hooked time.Duration
	var insns uint64
	for _, pr := range p.progs {
		_, _, w, err := runTOL(pr.image, p.cfg, nil, 0)
		if err != nil {
			return err
		}
		plain += w
		t, _, w, err := runTOL(pr.image, p.cfg, func(hostvm.RetireEvent) {}, 0)
		if err != nil {
			return err
		}
		hooked += w
		insns += t.VM.AppInsns
	}
	p.s.add("hostvm.retire_hook_ns_per_insn", float64(hooked-plain)/float64(insns))
	return nil
}

func (p *probes) interpOnly() error {
	cfg := p.cfg
	cfg.BBThreshold = math.MaxUint32
	var wall time.Duration
	var insns uint64
	for _, pr := range p.progs {
		t, _, w, err := runTOL(pr.image, cfg, nil, interpCap)
		if err != nil {
			return err
		}
		wall += w
		insns += t.Stats.GuestInsns()
	}
	p.s.add("tol.interp_mips", float64(insns)/wall.Seconds()/1e6)
	return nil
}

// translate re-runs the translator over every block resident at the end
// of the standalone runs, by kind.
func (p *probes) translate() error {
	var bb, sb time.Duration
	var nbb, nsb int
	for _, t := range p.tols {
		for _, blk := range t.Cache.Blocks() {
			t0 := time.Now()
			if _, err := t.RetranslateAtLevel(blk, tol.LevelFull); err != nil {
				continue // a region whose plan no longer forms; not timed
			}
			if d := time.Since(t0); blk.Kind == codecache.KindBB {
				bb, nbb = bb+d, nbb+1
			} else {
				sb, nsb = sb+d, nsb+1
			}
		}
	}
	if nbb == 0 {
		return fmt.Errorf("no basic-block translation resident")
	}
	p.s.add("tol.bb_translate_us_per_block", us(bb)/float64(nbb))
	// Programs too short to promote anything (-quick) have no superblock.
	p.s.add("tol.sb_translate_us_per_block", us(sb)/math.Max(float64(nsb), 1))
	return nil
}

// irPasses rebuilds each resident block's IR region and times the
// pipeline stages on it in the order the translator runs them.
func (p *probes) irPasses() error {
	var opt, sched, alloc, gen time.Duration
	var regions, insts, hostInsts int
	for _, t := range p.tols {
		for _, blk := range t.Cache.Blocks() {
			r, err := t.BuildRegionIR(blk)
			if err != nil {
				continue
			}
			sb := blk.Kind == codecache.KindSuperblock
			insts += len(r.Code)
			t0 := time.Now()
			r.ForwardPass()
			if sb {
				r.CSE()
			}
			r.DCE()
			if sb {
				r.MemOpt()
			}
			t1 := time.Now()
			if sb {
				r.Schedule(r.BuildDDG(), t.SBCfg.MaxSpecLoads)
			}
			t2 := time.Now()
			a := r.Allocate()
			t3 := time.Now()
			g, err := r.Generate(a)
			t4 := time.Now()
			if err != nil {
				return fmt.Errorf("codegen for block %#x: %w", blk.Entry, err)
			}
			opt += t1.Sub(t0)
			sched += t2.Sub(t1)
			alloc += t3.Sub(t2)
			gen += t4.Sub(t3)
			hostInsts += len(g.Code)
			regions++
		}
	}
	if regions == 0 {
		return fmt.Errorf("no region rebuilt")
	}
	n := float64(regions)
	p.s.add("ir.optimize_us_per_region", us(opt)/n)
	p.s.add("ir.ddg_sched_us_per_region", us(sched)/n)
	p.s.add("ir.regalloc_us_per_region", us(alloc)/n)
	p.s.add("ir.codegen_us_per_region", us(gen)/n)
	p.s.add("ir.insts_per_region", float64(insts)/n)
	p.s.add("ir.host_insts_per_region", float64(hostInsts)/n)
	return nil
}

func (p *probes) codecache() error {
	var blocks, used, lookups int
	var wall time.Duration
	for _, t := range p.tols {
		resident := t.Cache.Blocks()
		blocks += len(resident)
		used += t.Cache.Used()
		t0 := time.Now()
		for rep := 0; rep < 64; rep++ {
			for _, blk := range resident {
				if _, ok := t.Cache.Lookup(blk.Entry); !ok {
					return fmt.Errorf("resident block %#x not found", blk.Entry)
				}
			}
		}
		wall += time.Since(t0)
		lookups += 64 * len(resident)
	}
	p.s.add("codecache.blocks_resident", float64(blocks))
	p.s.add("codecache.host_insts_used", float64(used))
	p.s.add("codecache.lookup_ns", float64(wall)/float64(lookups))
	return nil
}

// validate runs one probe program under a controller and then repeats
// the full state comparison on the finished run.
func (p *probes) validate() error {
	c, err := controller.New(p.progs[0].image, controller.Config{
		TOL: p.cfg, ValidateEveryNSyncs: 1, CheckInterval: darco.DefaultCheckInterval})
	if err != nil {
		return err
	}
	if err := c.Run(0); err != nil {
		return err
	}
	const reps = 50
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	p.s.add("controller.validate_us", us(time.Since(t0))/reps)
	return nil
}

// replayEvent is one retired host instruction copied at emit time: the
// TOL patches translated code in place, so the *host.Inst of a captured
// event may no longer say what retired. Like the engine's own timing
// pipeline it keeps the fields the timing core reads.
type replayEvent struct {
	pc, target, addr uint32
	op               host.Op
	rd, ra, rb       uint8
	taken            bool
}

func (ev *replayEvent) feed(sink func(hostvm.RetireEvent)) {
	in := host.Inst{Op: ev.op, Rd: ev.rd, Ra: ev.ra, Rb: ev.rb}
	sink(hostvm.RetireEvent{Inst: &in, PC: ev.pc, Taken: ev.taken, Target: ev.target, Addr: ev.addr})
}

// timingReplay captures the head of the first probe program's retire
// stream once, then replays it into a fresh core directly and through the
// engine's pipeline: the per-event cost of timing.Core.Consume alone, and
// the ceiling a pipelined default could reach.
func (p *probes) timingReplay() error {
	if p.events == nil {
		limit := replayEventCap
		if p.quick {
			limit /= 8
		}
		events := make([]replayEvent, 0, limit)
		_, _, _, err := runTOL(p.progs[0].image, p.cfg, func(ev hostvm.RetireEvent) {
			if len(events) < limit {
				in := ev.Inst
				events = append(events, replayEvent{pc: ev.PC, target: ev.Target, addr: ev.Addr,
					op: in.Op, rd: in.Rd, ra: in.Ra, rb: in.Rb, taken: ev.Taken})
			}
		}, 0)
		if err != nil {
			return err
		}
		p.events = events
	}
	n := float64(len(p.events))

	core := timing.New(timing.DefaultConfig())
	t0 := time.Now()
	for i := range p.events {
		p.events[i].feed(core.Consume)
	}
	p.s.add("timing.consume_ns_per_event", float64(time.Since(t0))/n)
	p.s.add("timing.events", float64(core.Stats.Insns))
	p.s.add("timing.cycles", float64(core.Stats.Cycles))
	p.s.add("timing.ipc", core.Stats.IPC())
	p.s.add("timing.l1d_miss_rate", 100*core.L1D.MissRate())
	p.s.add("timing.bpred_miss_rate", 100*(1-core.BP.Accuracy()))

	piped := timing.New(timing.DefaultConfig())
	pipe := timing.NewPipeline(piped.Consume, 8)
	t0 = time.Now()
	pipe.Start()
	for i := range p.events {
		p.events[i].feed(pipe.Push)
	}
	pipe.Stop()
	p.s.add("timing.pipeline_ns_per_event", float64(time.Since(t0))/n)
	if piped.Stats != core.Stats {
		return fmt.Errorf("pipelined replay diverged from the synchronous replay")
	}
	return nil
}

func (p *probes) sessionNew() error {
	for _, pr := range p.progs {
		t0 := time.Now()
		if _, err := p.e.eng.NewSession(pr.image); err != nil {
			return err
		}
		p.s.add("darco.session_new_us", us(time.Since(t0)))
	}
	return nil
}

func (p *probes) steadySlices() error {
	var st steady
	for _, pr := range p.progs {
		if _, err := steppedSession(p.fnEng, pr, nil, 0, &st); err != nil {
			return err
		}
	}
	if st.wall > 0 {
		p.s.add("hostvm.steady_host_mips", float64(st.hostInsns)/st.wall.Seconds()/1e6)
	} else {
		p.s.add("hostvm.steady_host_mips", 0) // no slice without translation: nothing steady to rate
	}
	return nil
}

func (p *probes) telemetry() error {
	pr := p.progs[0]
	t0 := time.Now()
	if _, err := p.e.eng.Run(context.Background(), pr.image); err != nil {
		return err
	}
	plain := time.Since(t0)
	streamed, err := telemetrySession(p.e.eng, pr)
	if err != nil {
		return err
	}
	p.s.add("telemetry.stream_overhead_x", float64(streamed)/float64(plain))
	return nil
}

// exports runs the job roster as a bare campaign and times the two
// whole-report writers on it.
func (p *probes) exports() error {
	rep, csv, wall, err := p.e.bareCampaign(p.e.jobEng, nil, 0)
	if err != nil {
		return err
	}
	if !bytes.Equal(csv, p.e.refCSV) {
		return fmt.Errorf("bare campaign CSV changed")
	}
	p.s.add("darco.bare_campaign_ms", ms(wall))
	p.s.add("darco.campaign_parallel_efficiency",
		float64(rep.SerialWall())/(float64(rep.Wall)*float64(rep.Parallelism)))
	rows := float64(len(rep.Results))
	var buf bytes.Buffer
	t0 := time.Now()
	if err := export.WriteCSV(&buf, rep); err != nil {
		return err
	}
	p.s.add("export.csv_us_per_row", us(time.Since(t0))/rows)
	buf.Reset()
	t0 = time.Now()
	if err := export.WriteJSON(&buf, rep); err != nil {
		return err
	}
	p.s.add("export.json_us_per_row", us(time.Since(t0))/rows)
	return nil
}

// derive turns the probe samples into layer metrics: the median of each,
// and translation's share of the bare round — the replayed per-block cost
// times the translations the round performed.
func (p *probes) derive(vals map[string]float64, round roundStats, roundWall time.Duration) {
	for name, xs := range p.s {
		vals[name] = perf.Median(xs)
	}
	translate := vals["tol.bb_translate_us_per_block"]*float64(round.bbTrans) +
		vals["tol.sb_translate_us_per_block"]*float64(round.sbTrans+round.assertReb+round.specReb)
	vals["tol.translate_share_of_wall"] = 100 * translate * 1e3 / float64(roundWall)
}
