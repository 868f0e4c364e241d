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
	s.readyTime = grow(s.readyTime, n)
	height, readyTime := s.height, s.readyTime
	hardPreds := s.hardPreds // unscheduled non-breakable preds
	softPreds := s.softPreds // unscheduled breakable preds

	// Critical-path height (including breakable edges: speculation is
	// opportunistic, priorities assume edges hold).
	for i := n - 1; i >= 0; i-- {
		lat := latencyOf(r.Code[i].Op)
		h := lat
		for _, e := range g.Succs[i] {
			h = max(h, height[e.To]+lat)
			if e.Breakable {
				softPreds[e.To]++
			} else {
				hardPreds[e.To]++
			}
		}
		height[i] = h
	}

	// The ready list holds the unscheduled instructions whose hard
	// predecessors are all scheduled, in the order they became so: that
	// order breaks ties between equal candidates, so a pick leaves it
	// in place and only closes the gap.
	ready := s.ready[:0]
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
		if readyTime[i] != readyTime[j] {
			return readyTime[i] < readyTime[j]
		}
		return height[i] > height[j]
	}
	// pick returns the position in ready of the next instruction.
	pick := func() int {
		bestNS, bestS := -1, -1 // positions
		for k, i := range ready {
			if softPreds[i] > 0 {
				if specUsed < maxSpec && r.Code[i].IsLoad() && (bestS < 0 || better(i, ready[bestS])) {
					bestS = k
				}
				continue
			}
			if bestNS < 0 || better(i, ready[bestNS]) {
				bestNS = k
			}
		}
		// Speculatively hoist a load only when it can issue now and the
		// best in-order candidate would stall the pipeline.
		if bestS >= 0 && readyTime[ready[bestS]] <= time &&
			(bestNS < 0 || readyTime[ready[bestNS]] > time) {
			specUsed++
			st.SpecLoads++
			r.Code[ready[bestS]].Spec = true
			return bestS
		}
		return bestNS
	}

	for len(order) < n {
		k := pick()
		if k < 0 {
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
		i := ready[k]
		ready = append(ready[:k], ready[k+1:]...)
		if readyTime[i] > time {
			time = readyTime[i]
		}
		done := time + latencyOf(r.Code[i].Op)
		order = append(order, i)
		time++
		for _, e := range g.Succs[i] {
			if e.Breakable {
				softPreds[e.To]--
			} else if hardPreds[e.To]--; hardPreds[e.To] == 0 {
				ready = append(ready, e.To)
			}
			if done > readyTime[e.To] {
				readyTime[e.To] = done
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
