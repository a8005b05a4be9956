package algorithms

import (
	"context"

	"extmem/internal/core"
)

// SortLauncher is the sort-side counterpart of trials.Launcher: one
// engine sort invocation as an injectable execution shape. A launcher
// must fulfil exactly the contract of Sorter.Sort — after a successful
// call, tape src of m holds the machine's items sorted in ascending
// order (adjacent duplicates dropped when s.Dedup is set) with the head
// back at the start — but it may execute the sort anywhere: the
// single-machine k-way engine, shard-local machines plus a combining
// merge (the sharded operator sorts of internal/relalg.Evaluator, built
// on shard.Sort.SortTape), or any future multi-process backend.
// Callers that take a SortLauncher treat nil as the single-machine
// engine, so the zero execution shape is always the bitwise-accounted
// local Sorter.
//
// The context bounds the invocation: a distributed launcher stops its
// shard machines when ctx is cancelled and returns the context error
// (the single-machine engine, which never blocks, may ignore it). The
// work tapes are the lanes the single-machine engine would merge
// over; distributed implementations typically ignore them (their
// machines bring their own tape sets) but receive them so the fan-in
// the caller resolved — which also fixes the run partitioning — is
// visible as s.FanIn.
type SortLauncher func(ctx context.Context, s Sorter, m *core.Machine, src int, work []int) error
