package timing

// Branch prediction: gshare direction predictor plus a branch target
// buffer, the front-end configuration the paper lists.

// BPredConfig parameterises the predictor.
type BPredConfig struct {
	GShareBits int // history / table index bits, 0…31
	BTBEntries int // direct-mapped BTB entries (power of two)
}

// BPred is a gshare + BTB predictor.
type BPred struct {
	cfg     BPredConfig
	table   []uint8 // 2-bit saturating counters
	history uint32
	mask    uint32

	btbTags    []uint32
	btbTargets []uint32
	btbMask    uint32

	Lookups        uint64
	DirMispredicts uint64
	BTBMisses      uint64
}

// NewBPred builds a predictor.
func NewBPred(cfg BPredConfig) *BPred {
	size := 1 << cfg.GShareBits
	p := &BPred{
		cfg:        cfg,
		table:      make([]uint8, size),
		mask:       uint32(size - 1),
		btbTags:    make([]uint32, cfg.BTBEntries),
		btbTargets: make([]uint32, cfg.BTBEntries),
		btbMask:    uint32(cfg.BTBEntries - 1),
	}
	for i := range p.table {
		p.table[i] = 1 // weakly not taken
	}
	return p
}

// Predict processes one dynamic branch: it returns whether the front-end
// mispredicted (direction wrong, or taken with a BTB target miss).
func (p *BPred) Predict(pc uint32, taken bool, target uint32, conditional bool) bool {
	p.Lookups++
	idx := ((pc >> 2) ^ p.history) & p.mask
	pred := p.table[idx] >= 2
	if !conditional {
		pred = true // unconditional transfers predict taken
	}
	// Update direction state.
	if conditional {
		if taken && p.table[idx] < 3 {
			p.table[idx]++
		}
		if !taken && p.table[idx] > 0 {
			p.table[idx]--
		}
		p.history = (p.history << 1) | b2u32(taken)
	}
	misp := pred != taken
	if conditional && misp {
		p.DirMispredicts++
	}
	// BTB: a correctly predicted taken branch still redirects if the
	// target is unknown.
	if taken {
		b := (pc >> 2) & p.btbMask
		if p.btbTags[b] != pc || p.btbTargets[b] != target {
			if pred {
				p.BTBMisses++
				misp = true
			}
			p.btbTags[b] = pc
			p.btbTargets[b] = target
		}
	}
	if !conditional {
		return misp && taken // unconditional: only BTB can miss
	}
	return misp
}

// Accuracy reports the direction prediction accuracy.
func (p *BPred) Accuracy() float64 {
	if p.Lookups == 0 {
		return 1
	}
	return 1 - float64(p.DirMispredicts)/float64(p.Lookups)
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
