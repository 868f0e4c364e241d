package timing

import "slices"

// Clone returns a deep copy of the core. The copy shares no mutable
// state with the receiver, so callers can snapshot the simulator
// mid-run (e.g. to charge TOL overhead onto a result without touching
// the live core) and keep consuming instructions on the original.
func (c *Core) Clone() *Core {
	n := &Core{}
	*n = *c
	n.BP = c.BP.clone()
	n.L1I = c.L1I.clone()
	n.L1D = c.L1D.clone()
	n.L2 = c.L2.clone()
	n.TLBs = &TLBHierarchy{
		L1I:     c.TLBs.L1I.clone(),
		L1D:     c.TLBs.L1D.clone(),
		L2:      c.TLBs.L2.clone(),
		WalkLat: c.TLBs.WalkLat,
		Walks:   c.TLBs.Walks,
	}
	n.PF = c.PF.clone()
	for i, pool := range c.units {
		n.units[i] = slices.Clone(pool)
	}
	n.iq = slices.Clone(c.iq)
	return n
}

func (c *Cache) clone() *Cache {
	n := &Cache{}
	*n = *c
	n.tags = slices.Clone(c.tags)
	return n
}

func (p *BPred) clone() *BPred {
	n := &BPred{}
	*n = *p
	n.table = slices.Clone(p.table)
	n.btbTags = slices.Clone(p.btbTags)
	n.btbTargets = slices.Clone(p.btbTargets)
	return n
}

func (t *TLB) clone() *TLB {
	n := &TLB{}
	*n = *t
	n.cache = t.cache.clone()
	return n
}

func (p *StridePrefetcher) clone() *StridePrefetcher {
	n := &StridePrefetcher{}
	*n = *p
	n.entries = slices.Clone(p.entries)
	return n
}
