package timing

// StridePrefetcher is the paper's stride data prefetcher: a PC-indexed
// table tracking last address and stride per load; two consecutive
// occurrences of the same stride arm the entry, after which the
// prefetcher prefills Degree lines ahead into the data cache.
type StridePrefetcher struct {
	Degree  int
	entries []strideEntry
	mask    uint32

	Trained   uint64
	Issued    uint64
	UsefulHit uint64 // accesses that hit a prefilled line
}

type strideEntry struct {
	tag    uint32
	last   uint32
	stride int32
	conf   uint8 // 0..3; >=2 armed
}

// NewStridePrefetcher builds a prefetcher with the given table size
// (power of two) and prefetch degree.
func NewStridePrefetcher(entries, degree int) *StridePrefetcher {
	p := new(StridePrefetcher)
	p.init(entries, degree)
	return p
}

// init makes p an untrained prefetcher, its table cut from the one p
// holds when that is long enough (see resize).
func (p *StridePrefetcher) init(entries, degree int) {
	*p = StridePrefetcher{Degree: degree, entries: resize(p.entries, entries), mask: uint32(entries - 1)}
}

// Observe trains on a demand access from load PC pc to addr and issues
// prefills into l1 (and l2) when armed.
func (p *StridePrefetcher) Observe(pc, addr uint32, l1, l2 *Cache) {
	if len(p.entries) == 0 {
		return
	}
	e := &p.entries[(pc>>2)&p.mask]
	if e.tag != pc {
		*e = strideEntry{tag: pc, last: addr}
		return
	}
	stride := int32(addr - e.last)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
			if e.conf == 2 {
				p.Trained++
			}
		}
	} else {
		e.stride = stride
		if e.conf > 0 {
			e.conf--
		}
	}
	e.last = addr
	if e.conf >= 2 && e.stride != 0 {
		next := addr
		for i := 0; i < p.Degree; i++ {
			next += uint32(e.stride)
			if !l1.Probe(next) {
				l1.Prefill(next)
				if l2 != nil {
					l2.Prefill(next)
				}
				p.Issued++
			}
		}
	}
}
