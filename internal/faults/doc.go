// Package faults makes failure an injectable execution shape, exactly
// like sharding and parallelism: a Plan is a deterministic, seed-keyed
// description of which fault (panic, error, delay) strikes which sites
// (trial indices, shard indices) on which attempts. Wrapping a
// trials.Launcher with a plan produces a launcher that misbehaves on
// schedule; ShardInject is the chaos hook of sharded sorts, merges and
// operator scans, and TapeWrap plants failing storage under a shard
// attempt's tapes.
//
// Determinism is the point. The repo's standing invariant is that
// every trial row and every sorted range is a pure function of (seed,
// index); the fault-tolerance layer (trials.Engine panic recovery,
// shard.Fleet/shard.Sort retry and fallback) exploits that purity to
// re-execute failed work with provably identical bytes. A Plan keys
// its strike decision on the same splitmix64 derivation
// (trials.Seed), so whether a site is faulty is itself a pure function
// of (plan seed, site index) — independent of shard count, worker
// count and scheduling. That is what lets the chaos matrix tests
// assert sha256-identical output across {no faults, flaky plan, delay
// plan} × shards × parallelism: recoverable chaos moves attempt
// counts, never bytes.
//
// Modes differ in what they leave behind. Delay and recoverable Panic
// plans are byte-invisible: the run's output is identical to the
// fault-free run. Error plans model the trial itself failing, so the
// struck rows carry deterministic error strings — still identical at
// every shard and worker count, but distinct from the fault-free run.
package faults
