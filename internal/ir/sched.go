package ir

// List scheduler. Orders region instructions by critical-path priority
// subject to the DDG, optionally breaking may-alias store→load edges by
// converting the hoisted load into a speculative memory operation (the
// paper's conversion of reordered accesses into speculative loads
// checked against the hardware alias table).

// SchedStats reports what scheduling did.
type SchedStats struct {
	SpecLoads int // loads hoisted speculatively above may-alias stores
	Length    int // schedule makespan in cycles (unit-width estimate)
}

// latencyOf estimates issue-to-result latency per IR op for priority
// computation, mirroring the host ISA's default latencies.
func latencyOf(op Op) int {
	switch op {
	case Mul, Mulh:
		return 3
	case Div, Rem:
		return 12
	case Ld32, Ld8, LdF:
		return 2
	case Fadd, Fsub:
		return 3
	case Fmul:
		return 4
	case Fdiv:
		return 12
	case Fsqrt:
		return 20
	case Fcvti, Fcvtf, Fslt, Fseq, Funord:
		return 2
	default:
		return 1
	}
}

// Schedule reorders the region in place. maxSpec bounds the number of
// speculative loads (the runtime alias table is finite); pass 0 to
// forbid speculation entirely.
func (r *Region) Schedule(g *DDG, maxSpec int) SchedStats {
	n := len(r.Code)
	if n == 0 {
		return SchedStats{}
	}

	s := r.scratch()
	s.height, s.hardPreds, s.softPreds = grow(s.height, n), grow(s.hardPreds, n), grow(s.softPreds, n)
	s.readyTime, s.scheduled = grow(s.readyTime, n), grow(s.scheduled, n)
	height, readyTime, scheduled := s.height, s.readyTime, s.scheduled
	hardPreds := s.hardPreds // unscheduled non-breakable preds
	softPreds := s.softPreds // unscheduled breakable preds

	// Critical-path height (including breakable edges: speculation is
	// opportunistic, priorities assume edges hold).
	for i := n - 1; i >= 0; i-- {
		h := latencyOf(r.Code[i].Op)
		for _, e := range g.Succs[i] {
			if v := height[e.To] + latencyOf(r.Code[i].Op); v > h {
				h = v
			}
		}
		height[i] = h
	}
	for i := 0; i < n; i++ {
		for _, e := range g.Preds[i] {
			if e.Breakable {
				softPreds[i]++
			} else {
				hardPreds[i]++
			}
		}
	}

	ready := s.ready[:0] // hard-ready instructions
	for i := 0; i < n; i++ {
		if hardPreds[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := s.order[:0]
	var st SchedStats
	specUsed := 0

	time := 0
	// better orders candidates by earliest readiness, then by critical
	// path height.
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
		// Speculatively hoist a load only when it can issue now and the
		// best in-order candidate would stall the pipeline.
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
			// Unreachable with a well-formed DAG: the topologically
			// first unscheduled instruction always has every pred
			// scheduled and is therefore pickable without speculation.
			// Fall back to the original order defensively, clearing
			// any speculation marks already made (a Spec flag without
			// the corresponding hoist would livelock at runtime).
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
		for _, e := range g.Succs[i] {
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
	// Reorder into the scratch's second buffer and swap the two.
	newCode := s.reorder[:0]
	for _, idx := range order {
		newCode = append(newCode, r.Code[idx])
	}
	s.reorder, r.Code = r.Code[:0], newCode
	s.ready, s.order = ready, order
	return st
}
