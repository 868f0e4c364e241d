package tol

// TranslationKind classifies the translations the TOL performs.
type TranslationKind uint8

// Translation event kinds.
const (
	TransBB            TranslationKind = iota // basic block translated (IM -> BBM)
	TransSB                                   // superblock created (BBM -> SBM)
	TransAssertRebuild                        // superblock rebuilt without asserts
	TransSpecRebuild                          // superblock rebuilt without memory speculation
)

func (k TranslationKind) String() string {
	switch k {
	case TransBB:
		return "bb"
	case TransSB:
		return "superblock"
	case TransAssertRebuild:
		return "assert-rebuild"
	case TransSpecRebuild:
		return "spec-rebuild"
	}
	return "?"
}

// TranslationEvent describes one translation the TOL performed. The
// rebuild kinds carry no size information: the follow-up TransSB event
// for the re-created region does.
type TranslationEvent struct {
	Kind       TranslationKind
	Entry      uint32 // guest PC of the region's single entry
	GuestInsns int    // static guest instructions covered
	HostInsns  int    // emitted host instructions
}

// observe reports a translation event to the configured observer.
func (t *TOL) observe(ev TranslationEvent) {
	if t.Cfg.OnTranslation != nil {
		t.Cfg.OnTranslation(ev)
	}
}
