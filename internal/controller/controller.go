// Package controller implements DARCO's Controller: the user-facing
// component that launches the x86 (authoritative) and co-designed
// components, mediates the Initialization / Execution / Synchronization
// phases, services the co-designed component's data requests (page
// transfers), executes system calls on the authoritative side, and
// validates the emulated architectural and memory state against the
// authoritative state (§V-A, §V-D).
package controller

import (
	"context"
	"fmt"
	"math"
	"time"

	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/tol"
)

// SyncKind classifies the synchronization events the controller
// mediates between the co-designed and authoritative components.
type SyncKind uint8

// Synchronization event kinds.
const (
	SyncSyscall      SyncKind = iota // syscall executed authoritatively, state forwarded
	SyncValidation                   // full state comparison passed
	SyncPageTransfer                 // guest page copied on first co-designed touch
	SyncFinal                        // end of application, final validation passed
)

func (k SyncKind) String() string {
	switch k {
	case SyncSyscall:
		return "syscall"
	case SyncValidation:
		return "validation"
	case SyncPageTransfer:
		return "page-transfer"
	case SyncFinal:
		return "final"
	}
	return "?"
}

// SyncEvent describes one synchronization the controller performed.
type SyncEvent struct {
	Kind       SyncKind
	GuestInsns uint64 // dynamic guest instructions retired so far
	GuestBBs   uint64 // dynamic guest basic blocks retired so far
	Addr       uint32 // page address (SyncPageTransfer only)
}

// MismatchError reports a divergence between the co-designed and
// authoritative states detected during validation.
type MismatchError struct {
	What     string // "register", "flags", "memory", "eip"
	Detail   string
	GuestBBs uint64 // dynamic basic blocks at detection
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("state mismatch after %d BBs: %s: %s", e.GuestBBs, e.What, e.Detail)
}

// Config parameterises a run.
type Config struct {
	TOL tol.Config
	// ValidateEveryNSyncs additionally compares full state at every
	// N-th synchronization (0 = only at end of application).
	ValidateEveryNSyncs int
	// MaxGuestInsns aborts runaway programs (0 = unlimited).
	MaxGuestInsns uint64

	// CheckInterval bounds one co-designed excursion to at most N guest
	// instructions, so RunContext observes cancellation and reports
	// progress between excursions even when the guest runs long without
	// a natural synchronization (0 = unbounded excursions).
	CheckInterval uint64

	// OnSync, when non-nil, observes every synchronization event.
	OnSync func(SyncEvent)
	// OnTick, when non-nil, runs after every CheckInterval-bounded
	// excursion that did not end the run (a progress heartbeat).
	OnTick func()
	// OnExcursion, when non-nil, runs every time a co-designed
	// excursion returns control to the controller — before the
	// synchronization (or error) that ended it is processed. The
	// session layer flushes its retire-stream batch here, so buffered
	// instruction events are always delivered ahead of the sync events
	// that follow them in retire order, and no events linger in the
	// buffer while the controller is outside the co-designed component.
	OnExcursion func()
}

// DefaultConfig returns the default controller configuration.
func DefaultConfig() Config {
	return Config{TOL: tol.DefaultConfig(), ValidateEveryNSyncs: 1}
}

// Controller owns one application execution.
type Controller struct {
	X86 *guestvm.VM // authoritative full-system component
	CoD *tol.TOL    // co-designed component

	Cfg Config

	// Statistics.
	PageTransfers uint64
	SyscallSyncs  uint64
	Validations   uint64
	// CatchUp is the wall time the run waited on the authoritative
	// component: each join of the shadow, and what catchUp then ran
	// inline to bring it to the co-designed progress point (a page
	// transfer only joins), clocked once per join or catch-up, never per
	// instruction. What the shadow ran while the co-designed component
	// was executing is not in it.
	CatchUp time.Duration

	// The shadow: while RunContext is on the stack, a second goroutine
	// runs X86 behind the co-designed component. X86 is the shadow's
	// from a publish to the next join and the caller's goroutine's at
	// all other times; the two channel operations are the only
	// hand-offs and all the synchronization there is. It never leads — a
	// target is progress the co-designed component has already made —
	// and the authoritative state at a target does not depend on how the
	// run to it was cut.
	targets chan uint64 // to the shadow: run X86 to this BBCount
	arrived chan error  // from the shadow: it is there, or why not
	lent    bool        // a target is out and not yet joined

	syncs int
	// bbOffset is the authoritative component's basic-block count at
	// the moment the co-designed component was attached (non-zero when
	// a sampling methodology transplants mid-program state).
	bbOffset uint64
}

// New performs the Initialization phase: it launches both components,
// loads the image into the authoritative component, and transfers the
// initial architectural state to the co-designed component.
func New(im *guest.Image, cfg Config) (*Controller, error) {
	x86, err := guestvm.New(im)
	if err != nil {
		return nil, err
	}
	return NewFrom(x86, cfg), nil
}

// NewFrom attaches a fresh co-designed component to an authoritative
// component that may already have made progress: the sampling warm-up
// methodology fast-forwards the x86 component functionally and
// transplants its state as the co-designed initial state.
func NewFrom(x86 *guestvm.VM, cfg Config) *Controller {
	cod := tol.New(cfg.TOL)
	// The process tracker pauses the x86 component (the EXECVE
	// analogue) and the controller forwards the initial state.
	cod.CPU = x86.CPU
	// Both components run the same immutable guest code: they decode
	// it into one table, and a block both decode the same is held once.
	cod.ShareCode(x86.Code())
	return &Controller{X86: x86, CoD: cod, Cfg: cfg, bbOffset: x86.BBCount}
}

// notify reports a synchronization event to the configured observer.
func (c *Controller) notify(kind SyncKind, addr uint32) {
	if c.Cfg.OnSync == nil {
		return
	}
	c.Cfg.OnSync(SyncEvent{
		Kind:       kind,
		GuestInsns: c.CoD.Stats.GuestInsns(),
		GuestBBs:   c.CoD.Stats.GuestBBs,
		Addr:       addr,
	})
}

// transferPage services a data request: it takes X86 back from the
// shadow and copies the page over, without running X86 to the
// co-designed progress point. It need not: the co-designed memory is
// strict and never drops a page, so no instruction the co-designed
// component has retired touched a page it requests for the first time;
// X86 retires the same stream up to that point, and syscalls, the only
// other writers of its memory, are synchronizations that finish the
// catch-up. The page reads the same at X86's position as at the progress
// point. The gap left goes to the next publish or catch-up.
func (c *Controller) transferPage(addr uint32) error {
	if err := c.join(); err != nil {
		return err
	}
	page, err := c.X86.Mem.Page(addr)
	if err != nil {
		return err
	}
	if err := c.CoD.InstallPage(addr&^uint32(guestvm.PageSize-1), page); err != nil {
		return err
	}
	c.PageTransfers++
	c.notify(SyncPageTransfer, addr&^uint32(guestvm.PageSize-1))
	return nil
}

// publish lends X86 to the shadow, to run to the co-designed component's
// present basic-block count while the next excursion executes, after
// taking back the previous loan. The first publish of a RunContext call
// starts the goroutine; endShadow ends it before that call returns.
func (c *Controller) publish() error {
	if err := c.join(); err != nil {
		return err
	}
	target := c.bbOffset + c.CoD.Stats.GuestBBs
	if c.X86.BBCount >= target { // nothing to run; and a zero target would mean no limit
		return nil
	}
	if c.targets == nil {
		// Buffered, so that neither side's send waits for the other's
		// thread to wake; one slot, because at most one target is out.
		c.targets, c.arrived = make(chan uint64, 1), make(chan error, 1)
		go func(x86 *guestvm.VM, targets <-chan uint64, arrived chan<- error) {
			defer close(arrived)
			for target := range targets {
				_, err := x86.Run(guestvm.RunLimits{BBCount: target})
				arrived <- err
			}
		}(c.X86, c.targets, c.arrived)
	}
	c.targets <- target
	c.lent = true
	return nil
}

// join takes X86 back from the shadow, waiting for it to arrive, and
// returns the error its run ended in: the one an inline catch-up over
// the same blocks would have returned.
func (c *Controller) join() error {
	if !c.lent {
		return nil
	}
	t0 := time.Now()
	err := <-c.arrived
	c.CatchUp += time.Since(t0)
	c.lent = false
	return err
}

// endShadow joins the shadow and waits for its goroutine to finish.
func (c *Controller) endShadow() error {
	if c.targets == nil {
		return nil
	}
	err := c.join()
	close(c.targets)
	<-c.arrived
	c.targets, c.arrived = nil, nil
	return err
}

// catchUp brings the authoritative component to the co-designed
// component's dynamic basic-block count: it joins the shadow, then runs
// inline what the co-designed component retired since the last publish
// or catch-up (one check interval at most, unless page transfers cut
// excursions in between). Syscalls, the final synchronization and
// StepValidate need X86 exactly there; a page transfer does not (see
// transferPage).
func (c *Controller) catchUp() error {
	if err := c.join(); err != nil {
		return err
	}
	target := c.bbOffset + c.CoD.Stats.GuestBBs
	if c.X86.BBCount >= target {
		return nil
	}
	t0 := time.Now()
	reason, err := c.X86.Run(guestvm.RunLimits{BBCount: target})
	c.CatchUp += time.Since(t0)
	if err != nil {
		return err
	}
	if reason != guestvm.StopBBLimit && reason != guestvm.StopHalt {
		return fmt.Errorf("controller: unexpected stop %v during catch-up", reason)
	}
	if c.X86.BBCount != target {
		return fmt.Errorf("controller: catch-up overshoot: x86 at %d BBs, co-designed at %d",
			c.X86.BBCount, target)
	}
	return nil
}

// syncSyscall executes the pending system call on the authoritative
// component and copies the resulting architectural state to the
// co-designed component (system calls are executed only by the x86
// component, §V-A).
func (c *Controller) syncSyscall() error {
	if err := c.catchUp(); err != nil {
		return err
	}
	// The co-designed component sits mid-basic-block at the SYSCALL;
	// advance the authoritative side through the partial block to the
	// same point.
	if reason, err := c.X86.Run(guestvm.RunLimits{StopAtSys: true, BBCount: c.bbOffset + c.CoD.Stats.GuestBBs + 1}); err != nil {
		return err
	} else if reason != guestvm.StopSyscall {
		return &MismatchError{What: "eip", GuestBBs: c.CoD.Stats.GuestBBs,
			Detail: fmt.Sprintf("x86 stopped for %v instead of reaching the syscall", reason)}
	}
	// Both components sit at the SYSCALL instruction: validate here if
	// configured, then execute it authoritatively.
	c.syncs++
	if c.Cfg.ValidateEveryNSyncs > 0 && c.syncs%c.Cfg.ValidateEveryNSyncs == 0 {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	in, err := c.X86.Fetch(c.X86.CPU.EIP)
	if err != nil {
		return err
	}
	if in.Op != guest.SYSCALL {
		return &MismatchError{What: "eip", GuestBBs: c.CoD.Stats.GuestBBs,
			Detail: fmt.Sprintf("co-designed at syscall, x86 at %#x (%v)", c.X86.CPU.EIP, in.Op)}
	}
	if err := c.X86.ServiceSyscallAt(); err != nil {
		return err
	}
	c.SyscallSyncs++
	// Transfer the post-syscall architectural state. Syscall-written
	// memory is transferred lazily through the normal data-request
	// path (current syscalls write registers only).
	c.CoD.CPU = c.X86.CPU
	c.CoD.Stats.GuestInsnsIM++ // the syscall instruction retires
	c.CoD.Stats.GuestBBs++
	c.CoD.ClearMidBB()
	if c.X86.Halted {
		c.CoD.SetHalted()
	}
	c.notify(SyncSyscall, 0)
	return nil
}

// StepValidate catches the authoritative component up to the
// co-designed progress point and validates the full state. The debug
// toolchain calls it after every dispatch in lockstep mode.
func (c *Controller) StepValidate() error {
	if err := c.catchUp(); err != nil {
		return err
	}
	return c.Validate()
}

// Validate compares the full co-designed architectural and memory state
// against the authoritative state.
func (c *Controller) Validate() error {
	c.Validations++
	bbs := c.CoD.Stats.GuestBBs
	a, b := &c.X86.CPU, &c.CoD.CPU
	if a.EIP != b.EIP {
		return &MismatchError{What: "eip", GuestBBs: bbs,
			Detail: fmt.Sprintf("x86 %#x, co-designed %#x", a.EIP, b.EIP)}
	}
	for i := 0; i < guest.NumGPR; i++ {
		if a.R[i] != b.R[i] {
			return &MismatchError{What: "register", GuestBBs: bbs,
				Detail: fmt.Sprintf("%s: x86 %#x, co-designed %#x", guest.GPRName(uint8(i)), a.R[i], b.R[i])}
		}
	}
	if a.Flags&guest.AllFlags != b.Flags&guest.AllFlags {
		return &MismatchError{What: "flags", GuestBBs: bbs,
			Detail: fmt.Sprintf("x86 %#05b, co-designed %#05b", a.Flags, b.Flags)}
	}
	for i := 0; i < guest.NumFPR; i++ {
		if f64bits(a.F[i]) != f64bits(b.F[i]) {
			return &MismatchError{What: "register", GuestBBs: bbs,
				Detail: fmt.Sprintf("f%d: x86 %g, co-designed %g", i, a.F[i], b.F[i])}
		}
	}
	// Memory: every co-designed page must match the authoritative
	// content (the co-designed side holds a subset of pages).
	for _, pageAddr := range c.CoD.Mem.Pages() {
		cp, err := c.CoD.Mem.Page(pageAddr)
		if err != nil {
			return err
		}
		ap, err := c.X86.Mem.Page(pageAddr)
		if err != nil {
			return err
		}
		if *cp != *ap {
			off := 0
			for i := range cp {
				if cp[i] != ap[i] {
					off = i
					break
				}
			}
			return &MismatchError{What: "memory", GuestBBs: bbs,
				Detail: fmt.Sprintf("addr %#x: x86 %#02x, co-designed %#02x",
					pageAddr+uint32(off), ap[off], cp[off])}
		}
	}
	c.notify(SyncValidation, 0)
	return nil
}

// Run drives the Execution phase to completion (or for up to budget
// guest instructions when budget > 0), mediating every synchronization.
func (c *Controller) Run(budget uint64) error {
	return c.RunContext(context.Background(), budget)
}

// RunContext is Run with cancellation: the context is checked before
// every co-designed excursion, and Cfg.CheckInterval bounds how many
// guest instructions one excursion may retire before control returns
// here, so cancellation is observed within one interval even when the
// guest computes without synchronizing. State stays consistent on
// cancellation: a later RunContext call resumes where this one stopped.
//
// Between synchronizations the authoritative component trails the
// co-designed one on a second goroutine, which exists only while this
// call is on the stack. An authoritative-side error it ran into is
// returned at the next join, in place of whatever else ended the call.
func (c *Controller) RunContext(ctx context.Context, budget uint64) (err error) {
	defer func() {
		if serr := c.endShadow(); serr != nil {
			err = serr
		}
	}()
	start := c.CoD.Stats.GuestInsns()
	for !c.CoD.Halted() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.Cfg.MaxGuestInsns > 0 && c.CoD.Stats.GuestInsns() > c.Cfg.MaxGuestInsns {
			return fmt.Errorf("controller: guest instruction limit exceeded")
		}
		step := uint64(0)
		if budget > 0 {
			used := c.CoD.Stats.GuestInsns() - start
			if used >= budget {
				return nil
			}
			step = budget - used
		}
		if iv := c.Cfg.CheckInterval; iv > 0 && (step == 0 || step > iv) {
			step = iv
		}
		res, err := c.CoD.Run(step)
		if c.Cfg.OnExcursion != nil {
			c.Cfg.OnExcursion()
		}
		if err != nil {
			return err
		}
		switch res.Event {
		case tol.EvBudget:
			if budget > 0 && c.CoD.Stats.GuestInsns()-start >= budget {
				return nil
			}
			// Interval tick only: let the authoritative side trail through
			// the next excursion, report progress, then loop back to the
			// cancellation check.
			if err := c.publish(); err != nil {
				return err
			}
			if c.Cfg.OnTick != nil {
				c.Cfg.OnTick()
			}
		case tol.EvHalt:
			// End of application: final synchronization and validation.
			if err := c.catchUp(); err != nil {
				return err
			}
			if !c.X86.Halted {
				return &MismatchError{What: "eip", GuestBBs: c.CoD.Stats.GuestBBs,
					Detail: fmt.Sprintf("co-designed halted, x86 still running at %#x", c.X86.CPU.EIP)}
			}
			if err := c.Validate(); err != nil {
				return err
			}
			c.notify(SyncFinal, 0)
			return nil
		case tol.EvSyscall:
			if err := c.syncSyscall(); err != nil {
				return err
			}
		case tol.EvNeedPage:
			if err := c.transferPage(res.FaultAddr); err != nil {
				return err
			}
		}
	}
	// Halted through the exit syscall: the syscall synchronization
	// already validated the final state.
	c.notify(SyncFinal, 0)
	return nil
}

// Release hands the session's working memory to the free lists the next
// session's take theirs from: both components' memories, the table of
// blocks both decoded, and the co-designed component's code cache and
// profile (see tol.TOL.Release). Call it only once RunContext has
// returned, so the shadow has been joined, and only when nothing will
// read the components again: what they hold then belongs to another
// session. A panic out of RunContext must not be followed by it.
func (c *Controller) Release() {
	c.X86.Mem.Release()
	c.X86.Code().Release()
	c.CoD.Release()
}

// Output returns the program's syscall output (authoritative side).
func (c *Controller) Output() []byte { return c.X86.Env.Output }

func f64bits(f float64) uint64 { return math.Float64bits(f) }
