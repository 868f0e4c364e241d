package ir

import (
	"cmp"
	"math"
	"slices"
)

// The IR passes as they stood before each was made linear in region
// size: CSE over a Go map, MemOpt and BuildDDG comparing every pair of
// memory operations, the list scheduler rescanning a ready list that
// only grows, and the linear scan sorting its intervals and rebuilding
// its active list for each one. They are the executable specification
// FuzzRegionPipeline holds the passes to: the same order, Spec marks,
// SchedStats, locations and slot counts. Each keeps its tables in
// locals, not in the Scratch, so nothing the rewrite changed reaches
// them except the helpers it left alone (forward, compact, constTable,
// memRefOf, classify, latencyOf, immUsable, isExitStateUse).

func oracleCSE(r *Region) int {
	seen := make(map[cseKey]ValueID)
	resolve := make([]ValueID, r.NumValues+1)
	removed := 0
	for i := range r.Code {
		in := &r.Code[i]
		in.forward(resolve)
		if in.Dst == 0 || in.IsLoad() || in.HasSideEffect() || in.Op == LiveIn {
			continue
		}
		k := cseKey{op: in.Op, a: in.A, b: in.B, immu: in.ImmU, immf: math.Float64bits(in.ImmF)}
		if commutative(in.Op) && in.B < in.A {
			k.a, k.b = in.B, in.A
		}
		if prev, ok := seen[k]; ok {
			resolve[in.Dst] = prev
			in.Op = Nop
			in.Dst, in.A, in.B = 0, 0, 0
			removed++
			continue
		}
		seen[k] = in.Dst
	}
	return removed
}

func oracleMemOpt(r *Region) MemOptStats {
	s := r.constTable()
	resolve := make([]ValueID, r.NumValues+1)
	type storeEntry struct {
		ref      memRef
		idx      int
		observed bool // an exit or may-alias load occurred after it
	}
	var avail []availEntry
	var stores []storeEntry
	var st MemOptStats

	for i := range r.Code {
		in := &r.Code[i]
		in.forward(resolve)
		switch {
		case in.IsLoad():
			ref := s.memRefOf(in)
			hit := false
			for _, e := range avail {
				if classify(e.ref, ref) == AliasMust {
					resolve[in.Dst] = e.val
					in.Op = Nop
					in.Dst, in.A = 0, 0
					st.LoadsEliminated++
					hit = true
					break
				}
			}
			if hit {
				break
			}
			for j := range stores {
				if classify(stores[j].ref, ref) != AliasNever {
					stores[j].observed = true
				}
			}
			avail = append(avail, availEntry{ref: ref, val: in.Dst})
		case in.IsStore():
			ref := s.memRefOf(in)
			for j := range stores {
				if !stores[j].observed && classify(stores[j].ref, ref) == AliasMust {
					dead := &r.Code[stores[j].idx]
					dead.Op = Nop
					dead.A, dead.B = 0, 0
					st.StoresEliminated++
					stores[j] = storeEntry{ref: ref, idx: i}
					goto recorded
				}
			}
			stores = append(stores, storeEntry{ref: ref, idx: i})
		recorded:
			kept := avail[:0]
			for _, e := range avail {
				if classify(e.ref, ref) == AliasNever {
					kept = append(kept, e)
				}
			}
			avail = append(kept, availEntry{ref: ref, val: in.B})
		case in.IsExit():
			for j := range stores {
				stores[j].observed = true
			}
		}
	}
	r.compact()
	return st
}

// oracleDDG is the dependence graph as an edge list in insertion order;
// oracleSuccs buckets it the way DDG.finish does.
type oracleDDG struct {
	n     int
	edges []Edge
}

func (g *oracleDDG) addEdge(from, to int, breakable bool) {
	if from != to {
		g.edges = append(g.edges, Edge{From: from, To: to, Breakable: breakable})
	}
}

func (g *oracleDDG) succs() [][]Edge {
	out := make([][]Edge, g.n)
	for _, e := range g.edges {
		out[e.From] = append(out[e.From], e)
	}
	return out
}

func (g *oracleDDG) preds() [][]Edge {
	out := make([][]Edge, g.n)
	for _, e := range g.edges {
		out[e.To] = append(out[e.To], e)
	}
	return out
}

func oracleBuildDDG(r *Region) *oracleDDG {
	s := r.constTable()
	g := &oracleDDG{n: len(r.Code)}
	defIdx := make([]int, r.NumValues+1)
	for i := range defIdx {
		defIdx[i] = -1
	}
	var memIdx, ctlIdx []int
	lastExit := -1

	for i := range r.Code {
		in := &r.Code[i]
		in.Uses(func(v ValueID) {
			if d := defIdx[v]; d >= 0 {
				g.addEdge(d, i, false)
			}
		})
		if in.Dst != 0 {
			defIdx[in.Dst] = i
		}

		switch {
		case in.IsLoad():
			ref := s.memRefOf(in)
			for _, m := range memIdx {
				prev := &r.Code[m]
				if !prev.IsStore() {
					continue
				}
				switch classify(s.memRefOf(prev), ref) {
				case AliasMust:
					g.addEdge(m, i, false)
				case AliasMay:
					g.addEdge(m, i, true)
				}
			}
			if !r.UseAsserts && lastExit >= 0 {
				g.addEdge(lastExit, i, false)
			}
			memIdx = append(memIdx, i)
		case in.IsStore():
			ref := s.memRefOf(in)
			for _, m := range memIdx {
				if classify(s.memRefOf(&r.Code[m]), ref) != AliasNever {
					g.addEdge(m, i, false)
				}
			}
			if !r.UseAsserts && lastExit >= 0 {
				g.addEdge(lastExit, i, false)
			}
			memIdx = append(memIdx, i)
		case in.Op == Assert:
			if len(ctlIdx) > 0 {
				g.addEdge(ctlIdx[len(ctlIdx)-1], i, false)
			}
			ctlIdx = append(ctlIdx, i)
		case in.IsExit():
			for _, m := range memIdx {
				g.addEdge(m, i, false)
			}
			if len(ctlIdx) > 0 {
				g.addEdge(ctlIdx[len(ctlIdx)-1], i, false)
			}
			ctlIdx = append(ctlIdx, i)
			lastExit = i
		}
	}
	return g
}

func oracleSchedule(r *Region, g *oracleDDG, maxSpec int) SchedStats {
	n := len(r.Code)
	if n == 0 {
		return SchedStats{}
	}
	succs, preds := g.succs(), g.preds()
	height, hardPreds, softPreds := make([]int, n), make([]int, n), make([]int, n)
	readyTime, scheduled := make([]int, n), make([]bool, n)

	for i := n - 1; i >= 0; i-- {
		h := latencyOf(r.Code[i].Op)
		for _, e := range succs[i] {
			if v := height[e.To] + latencyOf(r.Code[i].Op); v > h {
				h = v
			}
		}
		height[i] = h
	}
	for i := 0; i < n; i++ {
		for _, e := range preds[i] {
			if e.Breakable {
				softPreds[i]++
			} else {
				hardPreds[i]++
			}
		}
	}

	var ready []int
	for i := 0; i < n; i++ {
		if hardPreds[i] == 0 {
			ready = append(ready, i)
		}
	}
	var order []int
	var st SchedStats
	specUsed := 0

	time := 0
	better := func(i, j int) bool {
		if j < 0 {
			return true
		}
		if readyTime[i] != readyTime[j] {
			return readyTime[i] < readyTime[j]
		}
		return height[i] > height[j]
	}
	pick := func() int {
		bestNS, bestS := -1, -1
		for _, i := range ready {
			if scheduled[i] {
				continue
			}
			if softPreds[i] > 0 {
				if specUsed < maxSpec && r.Code[i].IsLoad() && better(i, bestS) {
					bestS = i
				}
				continue
			}
			if better(i, bestNS) {
				bestNS = i
			}
		}
		if bestS >= 0 && readyTime[bestS] <= time &&
			(bestNS < 0 || readyTime[bestNS] > time) {
			specUsed++
			st.SpecLoads++
			r.Code[bestS].Spec = true
			return bestS
		}
		return bestNS
	}

	for len(order) < n {
		i := pick()
		if i < 0 {
			for j := range r.Code {
				r.Code[j].Spec = false
			}
			return SchedStats{Length: n}
		}
		scheduled[i] = true
		if readyTime[i] > time {
			time = readyTime[i]
		}
		done := time + latencyOf(r.Code[i].Op)
		order = append(order, i)
		time++
		for _, e := range succs[i] {
			if e.Breakable {
				softPreds[e.To]--
			} else {
				hardPreds[e.To]--
			}
			if done > readyTime[e.To] {
				readyTime[e.To] = done
			}
			if hardPreds[e.To] == 0 && !scheduled[e.To] {
				ready = append(ready, e.To)
			}
		}
		if time > st.Length {
			st.Length = time
		}
	}
	newCode := make([]Inst, 0, n)
	for _, idx := range order {
		newCode = append(newCode, r.Code[idx])
	}
	r.Code = newCode
	return st
}

func oracleAllocate(r *Region) *Alloc {
	n := len(r.Code)
	s := r.constTable()
	a := &Alloc{Loc: make([]Loc, r.NumValues+1), constBits: s.constBits}
	defIdx, lastUse := make([]int, r.NumValues+1), make([]int, r.NumValues+1)
	needReg, constOp := make([]bool, r.NumValues+1), s.constOp
	for i := range defIdx {
		defIdx[i] = -1
		lastUse[i] = -1
	}

	for i := 0; i < n; i++ {
		in := &r.Code[i]
		if in.Dst != 0 {
			defIdx[in.Dst] = i
			if in.Op == LiveIn {
				reg, fp := PinnedHostReg(in.Arch)
				a.Loc[in.Dst] = Loc{Kind: LocPinned, N: int(reg), FP: fp}
			}
		}
		mark := func(v ValueID) {
			lastUse[v] = i
			if constOp[v] == Nop || (!immUsable(in, v) && !isExitStateUse(in, v)) {
				needReg[v] = true
			}
		}
		in.Uses(mark)
	}

	var ivs []interval
	for v := ValueID(1); int(v) <= r.NumValues; v++ {
		switch {
		case constOp[v] != Nop && !needReg[v]:
			a.Loc[v] = Loc{Kind: LocImm, FP: constOp[v] == ConstF}
		case a.Loc[v].Kind == LocNone && defIdx[v] >= 0:
			fp := r.Code[defIdx[v]].FPResult()
			ivs = append(ivs, interval{v: v, start: defIdx[v], end: max(lastUse[v], defIdx[v]), fp: fp})
		}
	}
	slices.SortFunc(ivs, func(x, y interval) int {
		return cmp.Or(cmp.Compare(x.start, y.start), cmp.Compare(x.v, y.v))
	})

	type activeIv struct {
		end int
		v   ValueID
		reg int
	}
	alloc := func(fp bool, lo, hi int, slots *int) {
		var free []int
		var active []activeIv
		for reg := lo; reg <= hi; reg++ {
			free = append(free, reg)
		}
		for _, iv := range ivs {
			if iv.fp != fp {
				continue
			}
			kept := active[:0]
			for _, ac := range active {
				if ac.end < iv.start {
					free = append(free, ac.reg)
				} else {
					kept = append(kept, ac)
				}
			}
			active = kept
			if len(free) > 0 {
				reg := free[len(free)-1]
				free = free[:len(free)-1]
				a.Loc[iv.v] = Loc{Kind: LocReg, N: reg, FP: fp}
				active = append(active, activeIv{end: iv.end, v: iv.v, reg: reg})
				continue
			}
			far := -1
			for k, ac := range active {
				if far < 0 || ac.end > active[far].end {
					far = k
				}
			}
			if far >= 0 && active[far].end > iv.end {
				victim := active[far]
				a.Loc[victim.v] = Loc{Kind: LocSlot, N: *slots, FP: fp}
				*slots++
				a.Spills++
				a.Loc[iv.v] = Loc{Kind: LocReg, N: victim.reg, FP: fp}
				active[far] = activeIv{end: iv.end, v: iv.v, reg: victim.reg}
			} else {
				a.Loc[iv.v] = Loc{Kind: LocSlot, N: *slots, FP: fp}
				*slots++
				a.Spills++
			}
		}
	}
	alloc(false, intTempLo, intTempHi, &a.IntSlots)
	alloc(true, fpTempLo, fpTempHi, &a.FPSlots)
	return a
}
