// Package timing implements DARCO's timing simulator (§V-C): a
// parameterized in-order superscalar host core with decoupled front-end
// and back-end, a BTB + gshare branch predictor, scoreboarding, simple
// and complex execution units, two-level cache and TLB hierarchies,
// and a stride data prefetcher. It is trace-driven: it consumes the
// retired host instruction stream the co-designed component produces.
package timing

// CacheConfig parameterises one cache level.
type CacheConfig struct {
	Sets      int // must be a power of two
	Ways      int
	LineBytes int // must be a power of two
	Latency   int // hit latency in cycles
}

// Cache is a set-associative LRU cache.
type Cache struct {
	cfg CacheConfig
	// tags holds the sets one after another, each set's ways in recency
	// order, most recent first. A way stores its line number with the
	// valid bit (bit 63) set; empty ways are zero and, because every
	// placed line goes to the front, always sit behind the valid ones.
	// So the last way is the LRU victim, and a hit on the first way —
	// the same line or page again, the common case — changes nothing.
	tags     []uint64
	setMask  uint32
	lineBits uint32
	// mru is the tag place stored last. Nothing has been placed since,
	// so that line is still way 0 of its set, and an Access to it is a
	// hit that changes nothing. Probe never moves a line and init clears
	// the field with the tags, so neither breaks the invariant; the zero
	// value matches no line because every tag has validBit.
	mru uint64

	Accesses uint64
	Misses   uint64
	Prefills uint64 // lines installed by the prefetcher
}

const validBit = uint64(1) << 63

// NewCache builds a cache.
func NewCache(cfg CacheConfig) *Cache {
	c := new(Cache)
	c.init(cfg)
	return c
}

// init makes c an empty cache of geometry cfg, its tags cut from the
// array c holds when that is long enough (see resize).
func (c *Cache) init(cfg CacheConfig) {
	*c = Cache{cfg: cfg, tags: resize(c.tags, cfg.Sets*cfg.Ways), setMask: uint32(cfg.Sets - 1)}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// set returns the ways of the set addr maps to and the tag a way
// holding addr's line stores.
func (c *Cache) set(addr uint32) (ways []uint64, tag uint64) {
	line := addr >> c.lineBits
	return c.tags[int(line&c.setMask)*c.cfg.Ways:][:c.cfg.Ways], uint64(line) | validBit
}

// place makes tag's line the most recent of its set, replacing the
// least recently used line when it is not resident, and reports whether
// it was.
func (c *Cache) place(ways []uint64, tag uint64) bool {
	c.mru = tag
	i, hit := 0, false
	for i = range ways {
		if ways[i] == tag {
			hit = true
			break
		}
	}
	for ; i > 0; i-- {
		ways[i] = ways[i-1]
	}
	ways[0] = tag
	return hit
}

// Access looks up addr, filling on miss. It reports whether it hit.
func (c *Cache) Access(addr uint32) bool {
	c.Accesses++
	if uint64(addr>>c.lineBits)|validBit == c.mru {
		return true
	}
	ways, tag := c.set(addr)
	if c.place(ways, tag) {
		return true
	}
	c.Misses++
	return false
}

// Probe looks up addr without filling or updating recency.
func (c *Cache) Probe(addr uint32) bool {
	ways, tag := c.set(addr)
	for _, t := range ways {
		if t == tag {
			return true
		}
	}
	return false
}

// Prefill installs a line without counting an access (prefetch fill).
func (c *Cache) Prefill(addr uint32) {
	if ways, tag := c.set(addr); !c.place(ways, tag) {
		c.Prefills++
	}
}

// LineBytes reports the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// MissRate reports the miss ratio.
func (c *Cache) MissRate() float64 { return c.activity().MissRate() }

func (c *Cache) activity() CacheActivity { return CacheActivity{c.Accesses, c.Misses, c.Prefills} }
