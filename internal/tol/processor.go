package tol

import (
	"fmt"

	"darco/internal/codecache"
	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/hostvm"
	"darco/internal/ir"
	"darco/obs"
)

// Config parameterises the TOL.
type Config struct {
	BBThreshold uint32 // interpretations before a basic block is translated
	SBThreshold uint64 // BBM executions before superblock promotion
	Costs       Costs
	SB          SBConfig
	HostCfg     hostvm.Config
	CacheSize   int    // code cache capacity in host instructions
	RunFuel     uint64 // host instructions per code-cache excursion

	// MutateRegion, when non-nil, runs on every optimized region just
	// before code generation. It exists for the debug toolchain: inject
	// a translator bug here and let the debugger pinpoint it.
	MutateRegion func(*ir.Region)

	// OnTranslation, when non-nil, observes every translation the TOL
	// performs (BB translations, superblock promotions, rebuilds).
	OnTranslation func(TranslationEvent)

	// DisableChaining turns off block chaining and the IBTC (ablation).
	DisableChaining bool

	// EagerFlags materializes all five guest condition flags after
	// every flag-writing instruction instead of lazily at consumers
	// and exits (ablation of the lazy-flags emulation-cost reduction).
	EagerFlags bool

	// Counters, when non-nil, receives hot-path profiling counts
	// (decode-cache and block-cache hit/miss, code-cache flushes).
	// Nil costs one predictable branch per instrumented site.
	Counters *obs.EngineCounters
}

// DefaultConfig returns the paper-default TOL configuration.
func DefaultConfig() Config {
	return Config{
		BBThreshold: 10,
		SBThreshold: 300,
		Costs:       DefaultCosts(),
		SB:          DefaultSBConfig(),
		HostCfg:     hostvm.DefaultConfig(),
		CacheSize:   codecache.DefaultCapacity,
		RunFuel:     200_000,
	}
}

// Event is what Run pauses for.
type Event uint8

// Run events.
const (
	EvBudget   Event = iota // guest instruction budget exhausted
	EvHalt                  // guest executed HALT
	EvSyscall               // guest at a SYSCALL; controller must sync
	EvNeedPage              // first touch of a guest page; controller must transfer it
)

func (e Event) String() string {
	switch e {
	case EvBudget:
		return "budget"
	case EvHalt:
		return "halt"
	case EvSyscall:
		return "syscall"
	case EvNeedPage:
		return "need-page"
	}
	return "?"
}

// RunResult reports why Run returned.
type RunResult struct {
	Event     Event
	FaultAddr uint32 // valid for EvNeedPage
}

// Stats aggregates the execution statistics the paper's evaluation
// section reports.
type Stats struct {
	GuestInsnsIM  uint64 // dynamic guest instructions interpreted
	GuestInsnsBBM uint64 // retired from basic-block translations
	GuestInsnsSBM uint64 // retired from superblocks
	GuestBBs      uint64 // dynamic guest basic blocks retired

	HostInsnsBBM uint64 // host instructions retired in BBM blocks
	HostInsnsSBM uint64 // host instructions retired in superblocks

	Dispatches     uint64
	BBTranslations uint64
	SBTranslations uint64
	AssertRebuilds uint64
	SpecRebuilds   uint64
	SpecLoadsSched uint64 // speculative loads emitted by the scheduler
	UnrolledLoops  uint64
	InterpBBs      uint64
	Syscalls       uint64
	PageRequests   uint64
}

// GuestInsns reports total dynamic guest instructions retired.
func (s *Stats) GuestInsns() uint64 {
	return s.GuestInsnsIM + s.GuestInsnsBBM + s.GuestInsnsSBM
}

// profEntry is the per-region-entry profiling record. The seed kept four
// parallel maps (interpretation counts, translation blacklist, rebuild
// options, execution frequencies) and paid up to four hash lookups per
// dispatch; one entry behind one lookup holds them all.
type profEntry struct {
	repCount    uint32 // interpretations since the last translation decision
	noTranslate bool   // block is untranslatable; stay in the interpreter
	sbOpts      sbOptions
	bbFreq      uint64 // region entry frequency (warm-up correlation input)
}

// TOL is the Translation Optimization Layer plus the co-designed
// component state it drives: the emulated guest architectural state, the
// emulated (strict, demand-paged) guest memory, the host emulator, the
// code cache and the IBTC.
type TOL struct {
	CPU   guest.CPU
	Mem   *guestvm.Memory
	VM    *hostvm.VM
	Cache *codecache.Cache
	IBTC  *IBTC

	Cfg      Config
	SBCfg    SBConfig
	Overhead Overhead
	Stats    Stats

	// prof holds the per-entry profile records (see profEntry).
	prof map[uint32]*profEntry

	// dec is the front end: the decoder every read of guest code goes
	// through (see block).
	dec guestvm.DecodeCache

	// scratch is the translation working memory (see its type).
	scratch scratch

	// ov accumulates overhead charges within the current dispatch; it
	// is flushed into Overhead once per dispatch by Run.
	ov [NumOverheadCats]uint64

	halted bool
	midBB  bool

	// LastDispatch records the most recent dispatch for the debug
	// toolchain: what executed and from where.
	LastDispatch DispatchRecord
}

// MidBB reports whether execution is paused in the middle of a guest
// basic block (after a mid-block page fault, at a syscall, or after the
// interpreter ran a block cut at guestvm.MaxBlockInsns). State
// comparison against the authoritative component is only meaningful at
// basic-block boundaries.
func (t *TOL) MidBB() bool { return t.midBB }

// ClearMidBB marks the component as block-aligned again (the controller
// calls it after completing a syscall synchronization).
func (t *TOL) ClearMidBB() { t.midBB = false }

// DispatchRecord describes one TOL dispatch.
type DispatchRecord struct {
	PC      uint32
	Mode    string // "im", "bb", "superblock"
	BlockID int    // -1 for interpretation
}

// New builds a co-designed component for a program whose initial state
// the controller will install. Memory is strict: first touches raise
// page requests.
func New(cfg Config) *TOL {
	t := &TOL{
		Mem:   guestvm.NewMemory(true),
		Cache: codecache.New(cfg.CacheSize),
		Cfg:   cfg,
		SBCfg: cfg.SB,
		prof:  make(map[uint32]*profEntry),
	}
	t.IBTC = NewIBTC(t.Cache)
	vmCfg := cfg.HostCfg
	t.VM = hostvm.New(t.Mem, vmCfg)
	t.VM.HotThreshold = cfg.SBThreshold
	t.VM.IBTC = t.IBTC.Probe
	t.Overhead.Charge(OvOther, cfg.Costs.Init)
	return t
}

// InstallPage installs a page image the emulated guest memory does not
// hold yet; the controller installs each page once, on first touch.
// Memory is strict and every fetch reads exactly the instruction's
// bytes, so nothing was derived from the page before, and guest code
// is immutable (see guestvm.DecodeCache), so nothing derived is dropped.
func (t *TOL) InstallPage(pageAddr uint32, data *[guestvm.PageSize]byte) error {
	if t.Mem.HasPage(pageAddr) {
		return fmt.Errorf("tol: page %#x is already installed", pageAddr&^uint32(guestvm.PageSize-1))
	}
	t.Mem.InstallPage(pageAddr, data)
	return nil
}

// prof1 returns (allocating if needed) the profile entry for pc.
func (t *TOL) prof1(pc uint32) *profEntry {
	if p := t.prof[pc]; p != nil {
		return p
	}
	p := &profEntry{}
	t.prof[pc] = p
	return p
}

// profOpts reads the rebuild options for entry without allocating.
func (t *TOL) profOpts(pc uint32) sbOptions {
	if p := t.prof[pc]; p != nil {
		return p.sbOpts
	}
	return sbOptions{}
}

// BBFreqSnapshot returns a copy of the co-designed execution
// distribution (region entry frequencies). The warm-up methodology
// correlates it against the authoritative distribution.
func (t *TOL) BBFreqSnapshot() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(t.prof))
	for pc, p := range t.prof {
		if p.bbFreq > 0 {
			out[pc] = p.bbFreq
		}
	}
	return out
}

// SetThresholds changes the promotion thresholds at run time. The
// warm-up simulation methodology (§VI-E) downscales them during the TOL
// warm-up phase and restores them while collecting statistics.
func (t *TOL) SetThresholds(bb uint32, sb uint64) {
	if bb < 1 {
		bb = 1
	}
	if sb < 1 {
		sb = 1
	}
	t.Cfg.BBThreshold = bb
	t.Cfg.SBThreshold = sb
	t.VM.HotThreshold = sb
}

// Thresholds reports the active promotion thresholds.
func (t *TOL) Thresholds() (bb uint32, sb uint64) {
	return t.Cfg.BBThreshold, t.Cfg.SBThreshold
}

// Halted reports whether the guest has executed HALT or exited.
func (t *TOL) Halted() bool { return t.halted }

// SetHalted force-stops the component (controller use, on SysExit).
func (t *TOL) SetHalted() { t.halted = true }

// Fetch decodes the guest instruction at pc from the emulated memory.
// It returns a page-fault error when the code page has not been
// transferred yet.
func (t *TOL) Fetch(pc uint32) (guest.Inst, error) {
	in, err := guestvm.Fetch(t.Mem, pc)
	return in, tolErr(err)
}

// block returns the block the front end's decoder returns at pc (see
// guestvm.DecodeCache.Decode), counting one decode hit when it came
// from the block cache and one miss when it was decoded.
func (t *TOL) block(pc uint32) (*guestvm.Block, error) {
	b, hit, err := t.dec.Decode(t.Mem, nil, pc)
	if c := t.Cfg.Counters; c != nil {
		if hit {
			c.DecodeHits.Add(1)
		} else {
			c.DecodeMisses.Add(1)
		}
	}
	return b, tolErr(err)
}

// tolErr names the TOL in an undecodable-instruction error; a page
// fault stays as the memory raised it.
func tolErr(err error) error {
	if _, ok := err.(guestvm.UndecodableError); ok {
		return fmt.Errorf("tol: %w", err)
	}
	return err
}

// flushOverhead folds the per-dispatch overhead accumulator into the
// run totals.
func (t *TOL) flushOverhead() {
	for c, v := range t.ov {
		if v != 0 {
			t.Overhead.Cat[c] += v
			t.ov[c] = 0
		}
	}
}

// Run executes up to budget guest instructions (0 = until an event).
func (t *TOL) Run(budget uint64) (RunResult, error) {
	start := t.Stats.GuestInsns()
	for !t.halted {
		if budget > 0 && t.Stats.GuestInsns()-start >= budget {
			return RunResult{Event: EvBudget}, nil
		}
		res, done, err := t.dispatch()
		t.flushOverhead()
		if err != nil {
			return RunResult{}, err
		}
		if done {
			return res, nil
		}
	}
	return RunResult{Event: EvHalt}, nil
}

// dispatch is one iteration of the TOL main loop (paper Fig. 3).
func (t *TOL) dispatch() (RunResult, bool, error) {
	c := &t.Cfg.Costs
	t.Stats.Dispatches++
	t.ov[OvOther] += c.DispatchLoop + c.StatsPerDispatch
	pc := t.CPU.EIP
	t.ov[OvLookup] += c.Lookup
	if blk, ok := t.Cache.Lookup(pc); ok {
		if t.Cfg.Counters != nil {
			t.Cfg.Counters.BlockHits.Add(1)
		}
		return t.execBlock(blk)
	}
	if t.Cfg.Counters != nil {
		t.Cfg.Counters.BlockMisses.Add(1)
	}

	b, derr := t.block(pc)
	if len(b.Insts) == 0 {
		return t.pageFaultResult(derr)
	}
	if op := b.Insts[0].Op; op == guest.SYSCALL {
		t.Stats.Syscalls++
		return RunResult{Event: EvSyscall}, true, nil
	} else if !translatable(op) {
		// Safety net: interpret the complex instruction directly.
		return t.interpretBBWith(pc, t.prof1(pc), b, derr)
	}

	p := t.prof1(pc)
	p.repCount++
	if p.repCount >= t.Cfg.BBThreshold && !p.noTranslate {
		if err := t.doBBTranslation(b, derr, p); err != nil {
			return t.pageFaultResult(err)
		}
		if !p.noTranslate {
			return RunResult{}, false, nil // next dispatch executes it
		}
	}
	return t.interpretBBWith(pc, p, b, derr)
}

// doBBTranslation translates and installs b, the block decoded at its
// entry; derr is the error that ended its decode early.
func (t *TOL) doBBTranslation(b *guestvm.Block, derr error, p *profEntry) error {
	blk, err := t.translateBB(b, derr)
	if err != nil {
		return err
	}
	if blk == nil {
		p.noTranslate = true
		return nil
	}
	c := &t.Cfg.Costs
	t.ov[OvBBTrans] += c.BBTransFixed + c.BBTransPerInsn*uint64(blk.GuestInsns)
	if t.Cache.Insert(blk) {
		t.IBTC.Flush()
		if t.Cfg.Counters != nil {
			t.Cfg.Counters.CodeFlushes.Add(1)
		}
	}
	t.Stats.BBTranslations++
	t.observe(TranslationEvent{Kind: TransBB, Entry: blk.Entry,
		GuestInsns: blk.GuestInsns, HostInsns: len(blk.Code)})
	return nil
}

// pageFaultResult converts a page-fault error into a controller event.
func (t *TOL) pageFaultResult(err error) (RunResult, bool, error) {
	if pf, ok := err.(*guestvm.PageFaultError); ok {
		t.Stats.PageRequests++
		return RunResult{Event: EvNeedPage, FaultAddr: pf.Addr}, true, nil
	}
	return RunResult{}, false, err
}

// execBlock runs translated code and handles its exit.
func (t *TOL) execBlock(blk *codecache.Block) (RunResult, bool, error) {
	c := &t.Cfg.Costs
	t.ov[OvPrologue] += c.Prologue
	t.prof1(blk.Entry).bbFreq++
	t.LastDispatch = DispatchRecord{PC: blk.Entry, Mode: blk.Kind.String(), BlockID: blk.ID}
	t.VM.Regs.LoadGuest(&t.CPU)
	res, rstats, err := t.VM.Run(blk, t.Cfg.RunFuel)
	if err != nil {
		return RunResult{}, false, err
	}
	t.VM.Regs.StoreGuest(&t.CPU)
	t.CPU.EIP = res.NextPC
	t.ov[OvPrologue] += c.Epilogue

	t.Stats.GuestInsnsBBM += rstats.GuestInsnsBB
	t.Stats.GuestInsnsSBM += rstats.GuestInsnsSB
	t.Stats.GuestBBs += rstats.GuestBBs
	t.Stats.HostInsnsBBM += rstats.HostInsnsBB
	t.Stats.HostInsnsSBM += rstats.HostInsnsSB
	if rstats.GuestBBs > 0 {
		// The basic block a cut interpreted piece began is retired.
		t.midBB = false
	}

	// Superblock promotion for blocks that crossed the hot threshold.
	for _, hot := range t.VM.DrainHot() {
		if err := t.promote(hot); err != nil {
			if _, isPF := err.(*guestvm.PageFaultError); isPF {
				// Code page not yet resident: drop the promotion; the
				// block stays hot and will be re-queued.
				continue
			}
			return RunResult{}, false, err
		}
	}

	switch res.Kind {
	case hostvm.ExitToTOL:
		if t.Cfg.DisableChaining {
			return RunResult{}, false, nil
		}
		// Attempt to chain the taken exit to an existing translation.
		t.ov[OvChaining] += c.ChainAttempt
		if src, ok := t.Cache.Get(res.Block.ID); ok {
			if dst, ok2 := t.Cache.Lookup(res.NextPC); ok2 {
				if err := t.Cache.Chain(src, res.ExitIdx, dst); err == nil {
					t.ov[OvChaining] += c.ChainPatch
				}
			}
		}
		return RunResult{}, false, nil
	case hostvm.ExitIndirect:
		if t.Cfg.DisableChaining {
			return RunResult{}, false, nil
		}
		t.ov[OvChaining] += c.ChainAttempt
		if dst, ok := t.Cache.Lookup(res.NextPC); ok {
			t.IBTC.Insert(res.NextPC, dst.ID)
			t.ov[OvChaining] += c.IBTCInsert
		}
		return RunResult{}, false, nil
	case hostvm.ExitAssertFail:
		// A rebuild turns the failing speculation off for the entry. Once
		// its options say so there is nothing left to turn off: a block
		// that still fails (a load partially overlapping a buffered store
		// fails whatever the scheduler did) only falls back below.
		if res.Block.Kind == codecache.KindSuperblock && res.Block.AssertFails >= t.SBCfg.AssertLimit &&
			!t.profOpts(res.Block.Entry).noAsserts {
			if err := t.rebuild(res.Block, func(o *sbOptions) { o.noAsserts = true }); err != nil {
				return RunResult{}, false, err
			}
			t.Stats.AssertRebuilds++
			t.observe(TranslationEvent{Kind: TransAssertRebuild, Entry: res.Block.Entry})
		}
		// Forward progress through the interpreter (§V-B1).
		return t.interpretBB(t.CPU.EIP)
	case hostvm.ExitMemSpecFail:
		if res.Block.Kind == codecache.KindSuperblock && res.Block.SpecFails >= t.SBCfg.SpecLimit &&
			!t.profOpts(res.Block.Entry).noMemSpec {
			if err := t.rebuild(res.Block, func(o *sbOptions) { o.noMemSpec = true }); err != nil {
				return RunResult{}, false, err
			}
			t.Stats.SpecRebuilds++
			t.observe(TranslationEvent{Kind: TransSpecRebuild, Entry: res.Block.Entry})
		}
		return t.interpretBB(t.CPU.EIP)
	case hostvm.ExitPageFault:
		t.Stats.PageRequests++
		return RunResult{Event: EvNeedPage, FaultAddr: res.FaultAddr}, true, nil
	}
	return RunResult{}, false, fmt.Errorf("tol: unhandled exit kind %v", res.Kind)
}

// promote builds and installs a superblock rooted at a hot BBM block.
func (t *TOL) promote(entry uint32) error {
	plan, err := t.formSuperblock(entry)
	if err != nil {
		return err
	}
	opts := t.profOpts(entry)
	if t.SBCfg.NoAsserts {
		opts.noAsserts = true
	}
	blk, st, err := t.translateSuperblock(plan, opts)
	if err != nil {
		return err
	}
	c := &t.Cfg.Costs
	t.ov[OvSBTrans] += c.SBTransFixed + c.SBTransPerInsn*uint64(blk.GuestInsns)
	if t.Cache.Insert(blk) {
		t.IBTC.Flush()
		if t.Cfg.Counters != nil {
			t.Cfg.Counters.CodeFlushes.Add(1)
		}
	}
	t.Stats.SBTranslations++
	t.Stats.SpecLoadsSched += uint64(st.SpecLoads)
	if plan.unrolled > 1 {
		t.Stats.UnrolledLoops++
	}
	t.observe(TranslationEvent{Kind: TransSB, Entry: entry,
		GuestInsns: blk.GuestInsns, HostInsns: len(blk.Code), Unrolled: blk.Unrolled})
	return nil
}

// rebuild recreates a superblock with reduced speculation.
func (t *TOL) rebuild(blk *codecache.Block, adjust func(*sbOptions)) error {
	entry := blk.Entry
	p := t.prof1(entry)
	adjust(&p.sbOpts)
	if _, ok := t.Cache.Get(blk.ID); ok {
		t.Cache.Invalidate(blk)
	}
	return t.promote(entry)
}
