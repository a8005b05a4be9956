// Package shard is the deterministic sharded execution layer: it
// splits the repo's two heavy workloads — Monte-Carlo trial fleets
// (internal/trials, PR 2) and the k-way external merge sort
// (internal/algorithms.Sorter, PR 3) — across independent shards in
// the k-machine style of partitioned large-scale computation, while
// keeping every observable output byte-identical to a single-shard
// run.
//
// # Determinism contract
//
// Sharding must never change results, only where the work happens.
// Both subsystems honor this through the same two invariants:
//
//   - Trial fleets shard by disjoint contiguous trial-index ranges.
//     Plan{Shards, Trials} assigns shard j the global indices
//     [Ranges()[j].Lo, Ranges()[j].Hi); trial i's randomness is the
//     splitmix64 derivation trials.Seed(root, i), a pure function of
//     (root seed, global index), so a shard computes exactly the slice
//     of results the whole fleet would. Fleet runs one trials.Engine
//     per shard (each with its own worker pool) and re-interleaves the
//     per-shard streams into one in-order result stream, so results,
//     summaries and streamed rows are identical at any
//     (shards, parallel) combination.
//
//   - Sorting shards by initial runs, not items. Sort partitions the
//     fixed-count initial runs of the PR 3 engine (the first run's
//     greedy fill under RunMemoryBits fixes the per-run item count)
//     into contiguous ranges, sorts each range on a shard-local
//     machine with its own tape set, and k-way merges the per-shard
//     outputs through the loser tree (algorithms.MergeTapes). A sorted
//     multiset is canonical, so the output bytes are independent of
//     the shard count. Partition is that run-boundary cut on its own —
//     the one distribution scan of sorts and of internal/relalg's
//     operator scans, which also combine through Sort.Combine.
//
// # Resource accounting
//
// Every shard machine keeps its own exact (r, s, t) report — the
// paper's cost measures stay auditable per shard — and SortReport
// carries them all: the distribution scan, one core.Resources per
// shard, and the final merge. Rollup aggregates them two ways, as the
// max over shards (the parallel, wall-clock-like view) and the sum
// (the total-work view); sum(scans) can only grow relative to a
// single machine while max(scans) shrinks — the communication-for-
// locality trade of partitioned computation.
//
// # Recovery
//
// Every shard stage — a fleet's trial ranges, a sort's shard-local
// sorts, MergeRuns' shard-local merges and internal/relalg's operator
// scans — runs its attempts through RunStage, the one retry loop; the
// machine stages (sorts, merges, scans) enter it through RunJobs, the
// one stage runner, which sends a budgeted attempt to the stage's
// executor when it has one and runs the job in process otherwise. A
// cancelled run context ends the stage at once with the context's
// error; any other attempt error (an InjectFunc strike, a panic
// recovered as a *PanicError, a dead worker) uses up one attempt of the
// RetryPolicy budget after its backoff, and once the budget is spent
// the coordinator runs the shard's work itself, chaos-free. Shard work
// is input-pure, so recovery moves only the Census — SortReport's
// Attempts, Fallbacks and Recovered, trials.Summary's Retries,
// Fallbacks and Recovered — never a byte.
//
// LaunchRetry adapts a (shards, parallel) pair, a retry policy and the
// AttemptFunc a transport supplies to the trials.Launcher hook that the
// fleet entry points in internal/algorithms and internal/lowerbound
// accept, which is how experiments (E2, E5, E8, E14, E16, E18) and
// cmd/stbench -shards run sharded without a single table byte
// changing.
package shard
