package timing

// TLBConfig parameterises one TLB level.
type TLBConfig struct {
	Entries int // Entries/Ways (the set count) must be a power of two
	Ways    int
	Latency int // lookup latency in cycles
}

// TLB is a set-associative LRU translation lookaside buffer over 4 KiB
// pages.
type TLB struct {
	cfg   TLBConfig
	cache Cache
}

// NewTLB builds a TLB.
func NewTLB(cfg TLBConfig) *TLB {
	t := new(TLB)
	t.init(cfg)
	return t
}

// init makes t an empty TLB of geometry cfg (see Cache.init).
func (t *TLB) init(cfg TLBConfig) {
	t.cfg = cfg
	t.cache.init(CacheConfig{Sets: max(cfg.Entries/cfg.Ways, 1), Ways: cfg.Ways, LineBytes: 4096, Latency: cfg.Latency})
}

// Access translates the page containing addr, filling on miss.
func (t *TLB) Access(addr uint32) bool { return t.cache.Access(addr) }

// Accesses reports lookups.
func (t *TLB) Accesses() uint64 { return t.cache.Accesses }

// Misses reports misses.
func (t *TLB) Misses() uint64 { return t.cache.Misses }

func (t *TLB) activity() TLBActivity { return TLBActivity{t.cache.Accesses, t.cache.Misses} }

// Latency reports the hit latency.
func (t *TLB) Latency() int { return t.cfg.Latency }

// TLBHierarchy is the paper's two-level TLB: split L1 I/D TLBs backed by
// a shared L2 TLB and a fixed-cost page walk.
type TLBHierarchy struct {
	L1I, L1D *TLB
	L2       *TLB
	WalkLat  int

	Walks uint64
}

// Translate performs a data-side (or instruction-side) translation and
// returns the added latency beyond the L1 TLB hit path.
func (h *TLBHierarchy) Translate(addr uint32, isCode bool) int {
	l1 := h.L1D
	if isCode {
		l1 = h.L1I
	}
	if l1.Access(addr) {
		return 0
	}
	if h.L2.Access(addr) {
		return h.L2.Latency()
	}
	h.Walks++
	return h.L2.Latency() + h.WalkLat
}
