package main

import (
	"time"

	"darco/perf"
)

// The benchmark runs on shared hosts whose speed moves by a third for
// minutes at a time: while a neighbour was busy, ten runs of one binary
// spread their guest_mips over 16-28% of the median, and their median was
// 34% below that of ten runs twenty minutes earlier (README, Steadiness).
// No bound a regression check could use absorbs that, so the end-to-end
// timings are reported in nominal-host time: between the timed operations
// the host clock runs a fixed reference kernel, and each metric's median
// wall is divided by how much slower than nominal the run's median kernel
// ran. A single sample is too noisy to scale the one operation beside it
// (that widened the spread on a quiet host); the median of the hundred a
// run takes is not. The kernel is the benchmark's own and never changes
// with the code under test, so the scaling is the same for a parent and a
// change. The untraced pass prints the timings as measured beside the
// result.

const (
	kernelSteps = 300_000
	// kernelTable is the memory the kernel walks. A kernel that stays in
	// the first-level cache feels a neighbour half as much as the engine
	// does (in runs where guest_mips fell by 25% a 32 KiB kernel slowed by
	// 12%); over 2 MiB its time moved in proportion to a session's.
	kernelTable = 2 << 20
	// nominalKernel is what the kernel takes on the reference box (README)
	// while its neighbours are quiet. On that box, quiet, nominal time is
	// wall time.
	nominalKernel = 5450 * time.Microsecond
)

// hostClock samples the host's speed.
type hostClock struct {
	table   []uint32
	sink    uint64
	factors []float64 // every sample taken
}

func newHostClock() *hostClock {
	c := &hostClock{table: make([]uint32, kernelTable/4)}
	// Filled, so that the first kernel meets the branch mix the last does.
	x := uint64(2463534242)
	for i := range c.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.table[i] = uint32(x >> 16)
	}
	return c
}

// kernel is the reference work: an xorshift walk over the table with a
// data-dependent eight-way branch per step, the instruction mix of an
// interpreter loop.
func (c *hostClock) kernel() {
	x, acc := uint64(88172645463325252), c.sink
	for i := 0; i < kernelSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		slot := &c.table[x&uint64(len(c.table)-1)]
		v := uint64(*slot)
		switch v & 7 {
		case 0:
			acc += v
		case 1:
			acc ^= x
		case 2:
			acc -= v >> 3
		case 3:
			acc += x >> 11
		case 4:
			acc = acc<<1 | acc>>63
		case 5:
			acc ^= v << 7
		case 6:
			acc += 3
		default:
			acc *= 5
		}
		*slot += uint32(x >> 32)
	}
	c.sink = acc
}

// sample runs the kernel twice and returns how many times slower than
// nominal the host ran the second: the first brings back whatever of the
// table the operation before it evicted, so the sample does not depend on
// the cache footprint of the code under test. A nil clock reports a
// nominal host.
func (c *hostClock) sample() float64 {
	if c == nil {
		return 1
	}
	c.kernel()
	t0 := time.Now()
	c.kernel()
	f := float64(time.Since(t0)) / float64(nominalKernel)
	c.factors = append(c.factors, f)
	return f
}

// factor is the run's host factor: the median of every sample taken, so
// the noise of a single 4 ms sample does not reach the result.
func (c *hostClock) factor() float64 { return perf.Median(c.factors) }
