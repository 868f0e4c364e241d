// Package perf holds what the darco-perf command needs to judge a
// performance change:
//
//   - The paired A/B comparison (RunAB, Compare): two source trees run
//     the repository benchmark alternately on one machine, the order
//     flipping every pair, and each metric gets quartiles per side, the
//     change of the median, the pairs won and a verdict. A side is
//     better only when it won at least 9/10 of at least ten pairs and
//     the medians differ by more than the baseline's own q3−q1; otherwise
//     an end-to-end metric is within its bound, worse beyond it, or
//     unresolved when the baseline's spread is wider than the bound.
//     Alternation cancels the slow machine drift that makes cross-run
//     wall-clock comparisons lie; the BENCH_3 episode (a phantom
//     "10-16% regression" that was pure VM drift between snapshot
//     machines) is what it exists to prevent.
//
//   - The deterministic regression gate (Gate): two BENCH snapshots are
//     compared signal by signal, and the machine-independent signals —
//     engine profiling counters (decode/block-cache traffic, code-cache
//     flushes) and the figure metrics derived from bit-identical Stats
//     — must match exactly; allocs/op gets a 1 % tolerance (MemStats
//     deltas see background-goroutine noise). Wall time is not checked:
//     raw ns/op across machines is not evidence.
//
//   - Layout (ParseNM, FormatLayout): the address modulo 64 of the
//     simulator's inner loops in one benchmark binary or two.
//
// The package also owns the BENCH_<n>.json snapshot schema (Snapshot,
// Bench): schema 2 records per-bench engine-counter snapshots and
// marks figure rows that share one measured campaign cost, and
// ReadSnapshot transparently normalizes the committed schema-1 files.
package perf
