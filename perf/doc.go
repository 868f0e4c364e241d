// Package perf makes performance a first-class, continuously observed
// quantity. It carries the three pillars the darco-perf command drives:
//
//   - The paired interleaved A/B harness (RunAB): baseline and
//     candidate benchmark closures run alternately on the same machine
//     — warmup pairs, N interleaved repetitions, median/MAD summaries,
//     and a sign-test verdict (faster / slower / inconclusive) with an
//     effect size. Interleaving cancels the slow machine drift that
//     makes cross-run wall-clock comparisons lie; the BENCH_3 episode
//     (a phantom "10-16% regression" that was pure VM drift between
//     snapshot machines) is exactly what this harness exists to
//     prevent.
//
//   - Deterministic regression gates (Gate): two BENCH snapshots are
//     compared signal by signal, and the machine-independent signals —
//     engine profiling counters (decode/block-cache traffic, code-cache
//     flushes) and the figure metrics derived from bit-identical Stats
//     — must match exactly. Allocations get a
//     small tolerance (MemStats deltas see background-goroutine noise);
//     wall time is held only to a generous advisory ratio, because raw
//     ns/op across machines is not evidence.
//
//   - The perf-trend dashboard (WriteTrend): every committed
//     BENCH_<n>.json rendered as a static light/dark HTML trajectory —
//     deterministic allocation (normalized to first appearance) and
//     cache-hit-rate series, and gate-verdict annotations on the points
//     where a machine-independent signal moved.
//
// The package also owns the BENCH_<n>.json snapshot schema (Snapshot,
// Bench): schema 2 records per-bench engine-counter snapshots and
// marks figure rows that share one measured campaign cost, and
// ReadSnapshot transparently normalizes the committed schema-1 files.
package perf
