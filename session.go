package darco

import (
	"context"
	"errors"
	"time"

	"darco/internal/controller"
	"darco/internal/guest"
	"darco/internal/hostvm"
	"darco/internal/power"
	"darco/internal/timing"
	"darco/internal/tol"
)

// Session is one guest program executing on an Engine's configuration.
// It is single-goroutine to its caller: drive it with Run (to
// completion) or Step (incrementally), and read snapshots between
// steps. (Inside a Run or Step the authoritative component executes on
// a goroutine of its own, which has finished by the time the call
// returns; callbacks still run on the caller's.) A session whose
// context was cancelled stays consistent and can be resumed with a
// fresh context; any other error is terminal.
type Session struct {
	eng    *Engine
	ctl    *controller.Controller
	core   *timing.Core
	stream retireStream

	wall      time.Duration // inside the controller's run loop, over all Steps
	stepStart time.Time     // non-zero only while inside Step
	done      bool
	err       error // sticky terminal error
}

// NewSession launches the authoritative and co-designed components for
// im under the engine's configuration (the Initialization phase).
func (e *Engine) NewSession(im *guest.Image) (*Session, error) {
	s := &Session{eng: e}
	ctlCfg := controller.Config{
		TOL:                 e.cfg.TOL,
		ValidateEveryNSyncs: e.cfg.ValidateEveryNSyncs,
		MaxGuestInsns:       e.cfg.MaxGuestInsns,
		CheckInterval:       e.interval,
	}
	if obs := e.observer; obs != nil {
		ctlCfg.TOL.OnTranslation = func(ev tol.TranslationEvent) { obs.OnTranslation(translationEvent(ev)) }
		ctlCfg.OnSync = s.onSync
		ctlCfg.OnTick = func() { obs.OnProgress(s.progress()) }
	}
	ctl, err := controller.New(im, ctlCfg)
	if err != nil {
		return nil, err
	}
	s.ctl = ctl
	s.stream.vm = ctl.CoD.VM
	if e.cfg.Timing != nil {
		s.core = timing.New(*e.cfg.Timing)
	}
	s.installRetireHooks()
	for _, sub := range e.retireSinks {
		s.SubscribeRetires(sub.sink, sub.opts...)
	}
	return s, nil
}

// SubscribeRetires attaches sink to the session's retire stream: the
// co-designed component's retired host instructions delivered in
// batches, interleaved in retire order with the synchronization events
// the controller mediates. Every batch carries the instruction mix of
// the instructions it covers; WithRetireEvents adds the instructions
// themselves. The returned function unsubscribes.
//
// Subscribe, unsubscribe and delivery all happen on the session's
// goroutine: subscribe before running, or between Steps, and the
// stream picks up (or stops) at that execution point. A session with
// no subscribers pays nothing on the retirement hot path — no
// histogram is attached to the VM and its retire hook stays exactly
// what the timing configuration dictates.
func (s *Session) SubscribeRetires(sink RetireSink, opts ...RetireOption) (unsubscribe func()) {
	sub := s.stream.add(sink, opts...)
	s.installRetireHooks()
	return func() {
		s.stream.remove(sub)
		s.installRetireHooks()
	}
}

// installRetireHooks points the VM's retire slot and histogram and the
// controller's sync/excursion hooks at what the session currently
// needs. The retire slot is the timing core's Consume (or nothing),
// tee'd with the stream's event buffer only while a subscriber asked
// for per-instruction events; the stream's histogram is attached while
// any subscriber is.
func (s *Session) installRetireHooks() {
	var timingFn func(hostvm.RetireEvent)
	if s.core != nil {
		timingFn = s.core.Consume
	}
	vm := s.ctl.CoD.VM
	streamOn := s.stream.hasSubs()
	if s.stream.wantsEvents() {
		vm.Retire = hostvm.TeeRetire(timingFn, s.stream.push)
	} else {
		vm.Retire = timingFn
	}
	if streamOn {
		vm.Mix = &s.stream.mix
	} else {
		vm.Mix = nil
	}
	if streamOn || s.eng.observer != nil {
		s.ctl.Cfg.OnSync = s.onSync
	} else {
		s.ctl.Cfg.OnSync = nil
	}
	if streamOn {
		s.ctl.Cfg.OnExcursion = s.stream.flush
	} else {
		s.ctl.Cfg.OnExcursion = nil
	}
}

// onSync fans one controller synchronization event out to the engine's
// observer and the retire stream's subscribers.
func (s *Session) onSync(ev controller.SyncEvent) {
	pub := syncEvent(ev)
	if obs := s.eng.observer; obs != nil {
		obs.OnSync(pub)
	}
	if s.stream.hasSubs() {
		s.stream.sync(pub)
	}
}

// Run drives the session to completion and returns the final result.
// Cancelling ctx stops the run within one check interval of guest
// instructions and returns the context's error; the session may be
// resumed afterwards.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	return s.Step(ctx, 0)
}

// Step advances the session by up to budget guest instructions (0 =
// run to completion) and returns a snapshot of everything produced so
// far. Once the guest has halted, further Steps return the final result
// without executing anything.
func (s *Session) Step(ctx context.Context, budget uint64) (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.done {
		return s.Snapshot(), nil
	}
	s.stepStart = time.Now()
	err := s.ctl.RunContext(ctx, budget)
	s.wall += time.Since(s.stepStart)
	s.stepStart = time.Time{}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Cancellation leaves the components consistent; resumable.
			return nil, err
		}
		s.err = err
		return nil, err
	}
	if s.ctl.CoD.Halted() {
		s.done = true
	}
	return s.Snapshot(), nil
}

// Done reports whether the guest program has run to completion.
func (s *Session) Done() bool { return s.done }

// Err reports the session's terminal error, if any (cancellation is not
// terminal).
func (s *Session) Err() error { return s.err }

// Snapshot captures the session's cumulative results without executing
// anything. The snapshot shares no mutable state with the session:
// stepping further never mutates a previously returned Result, and the
// attached timing core (if any) is a deep copy with the TOL overhead
// accumulated so far charged onto it.
func (s *Session) Snapshot() *Result {
	ctl := s.ctl
	res := &Result{
		Stats:         ctl.CoD.Stats,
		Overhead:      ctl.CoD.Overhead,
		HostAppInsns:  ctl.CoD.VM.AppInsns,
		Output:        append([]byte(nil), ctl.Output()...),
		ExitCode:      ctl.X86.Env.ExitCode,
		Wall:          s.wall,
		Validations:   ctl.Validations,
		PageTransfers: ctl.PageTransfers,
		SyscallSyncs:  ctl.SyscallSyncs,
	}
	res.HostInsns = res.HostAppInsns + res.Overhead.Total()
	res.Phases = PhaseTimings{Emulate: s.wall, CatchUp: ctl.CatchUp}
	if c := s.eng.cfg.TOL.Counters; c != nil {
		snap := c.Snapshot()
		res.Obs = &snap
	}
	secs := res.Wall.Seconds()
	if secs > 0 {
		res.GuestMIPS = float64(res.Stats.GuestInsns()) / secs / 1e6
		res.HostMIPS = float64(res.HostInsns) / secs / 1e6
	}
	if s.core != nil {
		// Charge TOL overhead onto a deep copy: the live core keeps
		// consuming only application instructions, so snapshots stay
		// consistent and idempotent.
		core := s.core.Clone()
		core.AddTOL(res.Overhead.Total())
		st := core.Stats
		res.Timing = &st
		res.Core = core
		if s.eng.cfg.Power != nil {
			m := power.New(*s.eng.cfg.Power, s.eng.cfg.FreqMHz)
			res.Power = m.Analyze(core)
		}
	}
	return res
}

// progress builds the observer's periodic snapshot (cheap: no core
// clone, no output copy).
func (s *Session) progress() Progress {
	st := &s.ctl.CoD.Stats
	wall := s.wall
	if !s.stepStart.IsZero() {
		wall += time.Since(s.stepStart)
	}
	return Progress{
		GuestInsns:     st.GuestInsns(),
		HostAppInsns:   s.ctl.CoD.VM.AppInsns,
		TOLInsns:       s.ctl.CoD.Overhead.Total(),
		Dispatches:     st.Dispatches,
		BBTranslations: st.BBTranslations,
		SBTranslations: st.SBTranslations,
		Validations:    s.ctl.Validations,
		PageTransfers:  s.ctl.PageTransfers,
		SyscallSyncs:   s.ctl.SyscallSyncs,
		Wall:           wall,
	}
}
