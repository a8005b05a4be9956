// Package extmem is a reproduction of "Randomized Computations on
// Large Data Sets: Tight Lower Bounds" by Grohe, Hernich and
// Schweikardt (PODS 2006): the ST model of external-memory
// computation with its two cost measures (sequential scans of
// external devices, internal memory size), the upper-bound algorithms
// of Corollary 7 and Theorems 8(a)/(b), the list-machine proof
// machinery of the Ω(log N) lower bound (Theorem 6), and the query-
// evaluation reductions for relational algebra, XQuery and XPath
// (Theorems 11–13).
//
// The tape device (internal/tape) offers bulk transfer operations
// (ReadBlock, WriteBlock, ScanBytes, ScanUntil, CopyDelimited,
// ReadBlockBackward, and O(1) Rewind/SeekEnd) next to the single-cell
// head primitives.
// Bulk ops are performance sugar only: reversal, step, read and write
// accounting is identical to the equivalent sequence of single-cell
// steps, so every resource report — the (r, s, t) quantities the
// paper's classes bound — is unchanged while whole-direction sweeps
// run at memcpy speed. Differential property tests in internal/tape
// enforce this invariant.
//
// Sorting — the workhorse of Corollary 7, the relational evaluator and
// the Las Vegas experiments — runs on the configurable k-way engine
// algorithms.Sorter{FanIn, RunMemoryBits, Dedup}: memory-budgeted run
// formation (runs of ⌊s/itemBits⌋ items instead of single items),
// loser-tree merges of k runs per pass over up to t−2 work tapes
// (⌈log_k⌉ passes instead of ⌈log₂⌉), the item count taken during the
// first sweep, and an optional dedup-on-output hook that relalg's set
// semantics use in place of a separate scan + copy-back.
// All engine state is charged to the memory meter, so measured
// resources trace the model's r-vs-(s, t) trade-off (experiment E17).
// Fan-in assignments: the equality deciders sort four-way over tapes
// 3–6; relalg.sortDedup uses its two scratch tapes plus up to two
// free pool tapes; SortLasVegasAuto and the E5 fleet derive fan-in
// t−2 from the machine's tape count. Sorter.Sort is the engine's only
// entry; the zero Sorter is the plain 2-way balanced tape merge with
// single-item runs.
//
// Monte-Carlo trial fleets — error-rate estimation for the Theorem
// 8(a) fingerprint, Las Vegas repetition, adversary probing, and the
// randomized experiment sweeps — run on internal/trials: a worker-pool
// engine whose per-trial randomness derives from a root seed and the
// trial index via a splitmix64 mixing step, so a fleet produces
// identical results, streaming order and summaries at any worker
// count. Summaries report acceptance rates with Wilson confidence
// intervals, and Result rows stream through text/JSON/CSV encoders
// (surfaced by cmd/stbench -trials/-parallel/-format and the
// cmd/strun fingerprint fleet mode).
//
// Horizontal scale comes from internal/shard, the deterministic
// sharded execution layer, whose contract is that sharding is an
// execution choice, never an observable one. Trial fleets shard by
// disjoint contiguous trial-index ranges: trial i's randomness is a
// pure function of (root seed, global index i), each shard runs its
// own trials engine over its range (trials.Engine.Offset), and an
// in-order merge stream re-interleaves the rows, so results are
// byte-identical at any (shards, parallel) combination. Sorting
// shards at run level, never item level: the fixed-count initial runs
// of the Sorter are partitioned contiguously across shard-local
// machines (each with its own tape set and meter), sorted locally,
// and k-way merged through algorithms.MergeTapes — a sorted multiset
// is canonical, so the output is independent of the shard count,
// while per-shard (r, s, t) reports plus a max/sum rollup keep the
// paper's cost measures auditable per shard (experiment E18).
// cmd/stbench -shards and cmd/strun -shards select the shape.
//
// See README.md for the quickstart and experiment index,
// ARCHITECTURE.md for the layer map, and cmd/stbench for the full
// experiment suite. The packages live under internal/; the runnable
// entry points are cmd/ and examples/.
package extmem
