// Package relalg implements the relational algebra of Theorem 11: a
// query AST (selection, projection, union, difference, product,
// equi-join, rename), a reference in-memory evaluator with set
// semantics, and a streaming evaluator (EvalST) that runs every
// operator as scan/sort passes on the instrumented ST machine of
// internal/core.
//
// Theorem 11(a) states that every relational-algebra query can be
// evaluated in ST(O(log N), O(1), O(1)) data complexity — O(log N)
// sequential scans with a constant number of tuples in internal
// memory. The streaming evaluator realizes the bound operator by
// operator: inputs are kept as sorted '#'-item streams on tapes, and
// the set-semantics sort-with-dedup steps run on the k-way engine of
// internal/algorithms.Sorter (dedup folded into the final merge
// pass), over the evaluator's scratch tapes plus up to two free pool
// tapes. Experiment E6 measures the scans/log₂N ratio across input
// sizes.
//
// The hard query of Theorem 11(b), the symmetric difference
// Q' = (R1 − R2) ∪ (R2 − R1), is provided by SymmetricDifference: its
// emptiness decides SET-EQUALITY, which transfers the Theorem 6
// Ω(log N) lower bound to relational query evaluation — no evaluator
// in the o(log N)-scan, O(N^¼/log N)-memory regime can exist, even
// with Las Vegas randomization.
//
// Internal-memory discipline: every buffered tuple and counter is
// charged to the machine's meter, and every operator frees its
// regions on exit (the test suite asserts meter == 0 after each one),
// so the reported peak is the true O(1)-tuples bound of the theorem.
//
// # Sharded query evaluation
//
// Evaluator puts the same pipeline on the sharded execution layer:
// with Shards >= 1 every operator sort runs on the run-partitioned
// path of internal/shard — the coordinator cuts the tape's item
// stream at the engine's own fixed-count run boundaries, contiguous
// run ranges go to shard-local machines (each with its own tape set
// and meter), and algorithms.MergeTapes k-way merges the shard
// outputs back onto the query machine's tape, folding the
// set-semantics dedup into that final write. A sorted, deduplicated
// stream is canonical, so the relation each operator leaves behind —
// and therefore the query answer — is byte-identical at every shard
// count; the per-shard (r, s, t) census of every operator sort is
// collected in QueryReport with max/sum rollups and a critical-path
// view. One predicate — a planner or Shards >= 1 — puts a query on
// the sharded path (the zero shape is the historical single-machine
// engine, bit for bit), and one rule resolves each stage's shard
// count, fan-in and run memory: the planner's per-stage choice, or the
// fixed shape. On the sharded path the difference's anti-merge and the
// product's paired scan distribute too: shard.Partition cuts the left
// side exactly as it cuts a sort's input and broadcasts the right
// side, and the anti-merge combines through the sort's own
// shard.Sort.Combine. Every shard stage — sort, merge or scan — runs
// its jobs through shard.RunJobs, the one stage runner over the
// retry → coordinator-fallback loop, which records the stage's census
// in a shard.SortReport (ScanReport embeds one).
// With Pipeline (or a planner) set, a Union's children hand their
// per-shard sorted runs straight to the union's merge instead of
// merging, concatenating and re-distributing them. Both walks share
// one operator body: evalTape leaves each operator's output on a tape
// and reports whether it is already sorted and deduplicated, and the
// staged walk sorts what is not while the pipelined walk hands it
// over as runs.
// Evaluator.Sorted and Evaluator.EqualSet expose the machine-backed
// counterparts of Relation.Sorted and Relation.EqualSet on the same
// path. Experiment E19 tables the resulting shards × fan-in frontier;
// native fuzz targets (fuzz_test.go) drive arbitrary tuple sets and
// execution shapes against a stdlib-sort reference.
package relalg
