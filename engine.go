package darco

import (
	"context"
	"fmt"

	"darco/internal/guest"
	"darco/internal/power"
	"darco/internal/timing"
	"darco/internal/tol"
	"darco/obs"
)

// DefaultCheckInterval is the default granularity, in guest
// instructions, at which a running session checks for cancellation and
// emits progress snapshots.
const DefaultCheckInterval = 50_000

// Option configures an Engine under construction.
type Option func(*Engine)

// WithConfig replaces the engine's whole base configuration. It exists
// to bridge code built around the legacy Config struct; later options
// refine the installed config.
func WithConfig(cfg Config) Option {
	return func(e *Engine) { e.cfg = cfg }
}

// WithTOL sets the Translation Optimization Layer configuration.
func WithTOL(cfg tol.Config) Option {
	return func(e *Engine) { e.cfg.TOL = cfg }
}

// WithTiming attaches the in-order timing simulator to the co-designed
// component's retired host instruction stream.
func WithTiming(cfg timing.Config) Option {
	return func(e *Engine) { e.cfg.Timing = &cfg }
}

// WithPower attaches the event-energy power model at the given core
// frequency. The power model analyzes the timing simulator's state, so
// it requires WithTiming.
func WithPower(en power.Energies, freqMHz float64) Option {
	return func(e *Engine) {
		e.cfg.Power = &en
		e.cfg.FreqMHz = freqMHz
	}
}

// WithObsCounters attaches hot-path profiling counters to every
// session the engine (and any engine a campaign derives from it)
// creates: decode-cache and block-cache hit/miss and code-cache
// flushes. The caller owns c and may share one instance across engines
// — all updates are atomic — or allocate one per run for per-run
// attribution; Session.Snapshot surfaces the counter values as
// Result.Obs. Nil detaches (the default): the instrumented paths then
// cost one predictable branch, nothing more.
func WithObsCounters(c *obs.EngineCounters) Option {
	return func(e *Engine) { e.cfg.TOL.Counters = c }
}

// WithValidation compares co-designed vs authoritative state at every
// Nth synchronization in addition to the end of the application (0
// disables periodic validation).
func WithValidation(everyNSyncs int) Option {
	return func(e *Engine) { e.cfg.ValidateEveryNSyncs = everyNSyncs }
}

// WithMaxGuestInsns aborts runaway programs after n dynamic guest
// instructions (0 = unlimited).
func WithMaxGuestInsns(n uint64) Option {
	return func(e *Engine) { e.cfg.MaxGuestInsns = n }
}

// WithObserver streams translation events, synchronization events and
// periodic progress snapshots from every session to o.
func WithObserver(o Observer) Option {
	return func(e *Engine) { e.observer = o }
}

// WithRetireStream subscribes sink to the retire stream of every
// session the engine creates, as if Session.SubscribeRetires were
// called at session construction. Like observers, retire sinks are not
// inherited by the per-scenario engines a campaign derives: a sink
// shared across parallel sessions would have to be concurrency-safe,
// so scenarios must opt in through their own options.
func WithRetireStream(sink RetireSink, opts ...RetireOption) Option {
	return func(e *Engine) {
		e.retireSinks = append(e.retireSinks, retireSubscription{sink: sink, opts: opts})
	}
}

// WithCheckInterval sets how many guest instructions a session retires
// between cancellation checks and progress snapshots (0 = only at
// natural synchronization points). Lower values cancel faster but
// re-enter the dispatch loop more often.
func WithCheckInterval(guestInsns uint64) Option {
	return func(e *Engine) { e.interval = guestInsns }
}

// Engine is an immutable, reusable bundle of configuration: build one
// with NewEngine and spawn any number of Sessions (concurrently, if
// desired) from it. The zero options build the paper-default functional
// stack with per-syscall validation.
type Engine struct {
	cfg         Config
	observer    Observer
	retireSinks []retireSubscription
	interval    uint64
}

// NewEngine builds an engine from functional options. The resulting
// engine owns private copies of all configuration, so mutating option
// arguments afterwards does not affect it.
func NewEngine(opts ...Option) (*Engine, error) {
	e := &Engine{cfg: DefaultConfig(), interval: DefaultCheckInterval}
	for _, opt := range opts {
		opt(e)
	}
	// Detach from caller-held pointers so the engine is immutable.
	e.cfg.Timing = clonePtr(e.cfg.Timing)
	e.cfg.Power = clonePtr(e.cfg.Power)
	if e.cfg.Timing != nil {
		if err := e.cfg.Timing.Validate(); err != nil {
			return nil, fmt.Errorf("darco: WithTiming: %w", err)
		}
	}
	if e.cfg.Power != nil && e.cfg.Timing == nil {
		return nil, fmt.Errorf("darco: WithPower requires WithTiming (the power model analyzes the timing core)")
	}
	if e.cfg.Power != nil && e.cfg.FreqMHz <= 0 {
		return nil, fmt.Errorf("darco: WithPower requires a positive core frequency (got %g MHz)", e.cfg.FreqMHz)
	}
	if e.cfg.ValidateEveryNSyncs < 0 {
		return nil, fmt.Errorf("darco: negative validation interval %d", e.cfg.ValidateEveryNSyncs)
	}
	return e, nil
}

// Config returns a copy of the engine's effective configuration.
// Mutating the copy (including through its pointer fields) does not
// affect the engine.
func (e *Engine) Config() Config {
	cfg := e.cfg
	cfg.Timing = clonePtr(cfg.Timing)
	cfg.Power = clonePtr(cfg.Power)
	return cfg
}

// clonePtr returns a pointer to a copy of *p, or nil for nil. The
// timing and power configurations are plain values, so this detaches
// them completely.
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}

// CheckInterval reports the engine's cancellation/progress granularity
// in guest instructions.
func (e *Engine) CheckInterval() uint64 { return e.interval }

// Run builds a session for im and drives it to completion — the
// one-shot convenience over NewSession + Session.Run. The session's
// memory then goes to the next session the process runs; a session
// built with NewSession keeps its own.
func (e *Engine) Run(ctx context.Context, im *guest.Image) (*Result, error) {
	s, err := e.NewSession(im)
	if err != nil {
		return nil, err
	}
	return s.runOnce(ctx)
}

// derive builds a new engine that starts from this engine's
// configuration (minus the observer and retire sinks, which scenario
// options must opt into explicitly — a shared sink across parallel
// sessions must be concurrency-safe) and layers opts on top.
func (e *Engine) derive(opts ...Option) (*Engine, error) {
	if len(opts) == 0 && e.observer == nil && len(e.retireSinks) == 0 {
		return e, nil
	}
	all := make([]Option, 0, len(opts)+2)
	all = append(all, WithConfig(e.Config()), WithCheckInterval(e.interval))
	all = append(all, opts...)
	return NewEngine(all...)
}
