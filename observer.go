package darco

import (
	"fmt"
	"time"

	"darco/internal/controller"
	"darco/internal/tol"
)

// Observer receives streaming events from a running Session: every
// translation the TOL performs, every synchronization the controller
// mediates, and periodic progress snapshots at the engine's check
// interval. Callbacks run on the session's goroutine; a session never
// runs on more than one goroutine at a time, but distinct sessions of
// the same engine may invoke a shared Observer concurrently.
type Observer interface {
	OnTranslation(TranslationEvent)
	OnSync(SyncEvent)
	OnProgress(Progress)
}

// TranslationKind classifies translation events.
type TranslationKind uint8

// Translation event kinds.
const (
	TranslationBB            TranslationKind = iota // basic block translated (IM -> BBM)
	TranslationSB                                   // superblock created (BBM -> SBM)
	TranslationAssertRebuild                        // superblock rebuilt without asserts
	TranslationSpecRebuild                          // superblock rebuilt without memory speculation
)

func (k TranslationKind) String() string {
	switch k {
	case TranslationBB:
		return "bb"
	case TranslationSB:
		return "superblock"
	case TranslationAssertRebuild:
		return "assert-rebuild"
	case TranslationSpecRebuild:
		return "spec-rebuild"
	}
	return "?"
}

// TranslationEvent describes one translation the TOL performed.
type TranslationEvent struct {
	Kind       TranslationKind
	Entry      uint32 // guest PC of the region's single entry
	GuestInsns int    // static guest instructions covered
	HostInsns  int    // emitted host instructions
}

// SyncKind classifies controller synchronization events.
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

// SyncEvent describes one synchronization between the co-designed and
// authoritative components.
type SyncEvent struct {
	Kind       SyncKind
	GuestInsns uint64 // dynamic guest instructions retired so far
	GuestBBs   uint64 // dynamic guest basic blocks retired so far
	Addr       uint32 // page address (SyncPageTransfer only)
}

// Progress is a periodic snapshot of a running session, emitted every
// check interval of guest instructions.
type Progress struct {
	GuestInsns     uint64
	HostAppInsns   uint64
	TOLInsns       uint64
	Dispatches     uint64
	BBTranslations uint64
	SBTranslations uint64
	Validations    uint64
	PageTransfers  uint64
	SyscallSyncs   uint64
	Wall           time.Duration
}

// ObserverFuncs adapts free functions to the Observer interface; nil
// fields are skipped.
type ObserverFuncs struct {
	Translation func(TranslationEvent)
	Sync        func(SyncEvent)
	Progress    func(Progress)
}

// OnTranslation implements Observer.
func (o ObserverFuncs) OnTranslation(ev TranslationEvent) {
	if o.Translation != nil {
		o.Translation(ev)
	}
}

// OnSync implements Observer.
func (o ObserverFuncs) OnSync(ev SyncEvent) {
	if o.Sync != nil {
		o.Sync(ev)
	}
}

// OnProgress implements Observer.
func (o ObserverFuncs) OnProgress(p Progress) {
	if o.Progress != nil {
		o.Progress(p)
	}
}

// translationEvent converts a TOL-layer event to the public type. The
// kinds are mapped explicitly so a reordered or inserted internal kind
// cannot silently mislabel public events.
func translationEvent(ev tol.TranslationEvent) TranslationEvent {
	var kind TranslationKind
	switch ev.Kind {
	case tol.TransBB:
		kind = TranslationBB
	case tol.TransSB:
		kind = TranslationSB
	case tol.TransAssertRebuild:
		kind = TranslationAssertRebuild
	case tol.TransSpecRebuild:
		kind = TranslationSpecRebuild
	default:
		panic(fmt.Sprintf("darco: unmapped tol translation kind %d", ev.Kind))
	}
	return TranslationEvent{
		Kind:       kind,
		Entry:      ev.Entry,
		GuestInsns: ev.GuestInsns,
		HostInsns:  ev.HostInsns,
	}
}

// syncEvent converts a controller-layer event to the public type.
func syncEvent(ev controller.SyncEvent) SyncEvent {
	var kind SyncKind
	switch ev.Kind {
	case controller.SyncSyscall:
		kind = SyncSyscall
	case controller.SyncValidation:
		kind = SyncValidation
	case controller.SyncPageTransfer:
		kind = SyncPageTransfer
	case controller.SyncFinal:
		kind = SyncFinal
	default:
		panic(fmt.Sprintf("darco: unmapped controller sync kind %d", ev.Kind))
	}
	return SyncEvent{
		Kind:       kind,
		GuestInsns: ev.GuestInsns,
		GuestBBs:   ev.GuestBBs,
		Addr:       ev.Addr,
	}
}
