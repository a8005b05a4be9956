package shard

import (
	"bytes"
	"context"
	"fmt"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/tape"
	"extmem/internal/trials"
)

// separator is the item terminator as a slice, for bytes.Count.
var separator = []byte{problems.Separator}

// Sort is the sharded external sort: the Corollary 10 sorting problem
// partitioned across shard-local machines in the k-machine style. The
// input item stream is cut into the same fixed-count initial runs the
// PR 3 engine would form (the first run's greedy fill under
// RunMemoryBits fixes the per-run item count), contiguous run ranges
// go to shard-local tape sets, each shard sorts locally with the
// loser-tree engine, and a final k-way merge (algorithms.MergeTapes)
// re-combines the per-shard outputs. Because a sorted multiset is
// canonical, the output bytes are identical at every shard count.
type Sort struct {
	// Shards is the number of shard machines; values below 1 mean 1.
	Shards int

	// FanIn and RunMemoryBits configure each shard's local
	// algorithms.Sorter (and the run partitioning); see that type.
	FanIn         int
	RunMemoryBits int64

	// Dedup drops duplicate items while the final merge is written
	// (set semantics) — cross-shard duplicates meet in the merge, so
	// deduplication belongs to the combine stage, not the shards.
	Dedup bool

	// Retry bounds how often a failed shard-local sort (an injected
	// fault, a recovered panic) is re-attempted before the coordinator
	// re-runs that shard's range itself. Retrying is semantics-free:
	// a shard's sorted output is a pure function of its run range, so
	// the output bytes cannot depend on which attempt succeeded. The
	// zero policy attempts each shard once.
	Retry RetryPolicy

	// Inject, when non-nil, is the chaos hook consulted before every
	// shard-local attempt (never by the coordinator's fallback); see
	// InjectFunc. It exists so internal/faults can make shard failure
	// an injectable execution shape exactly like the shard count.
	Inject InjectFunc

	// TapeOpts selects the tape storage backend of every machine this
	// sort constructs — the coordinator's distribution and combine
	// machines and each shard-local machine. Storage is an execution
	// shape like the shard count: the output bytes and every resource
	// count are identical whatever it says. The options ride inside
	// SortJob to worker processes (Wrap does not; gob drops func
	// fields).
	TapeOpts tape.Options

	// Exec, when non-nil, overrides how a shard-local attempt executes
	// its SortJob — the transport seam, the sort-side twin of
	// Fleet.Attempt. The default is job.Execute() in-process;
	// internal/transport substitutes an Exec that ships the job to a
	// worker process and reads the sorted bytes and the shard machine's
	// core.Resources report back, and a storage-fault plan can set
	// job.Tape.Wrap before executing the job itself. A failed Exec (a
	// dead worker, a malformed reply) burns one attempt of the Retry
	// budget like any other attempt failure; the coordinator's fallback
	// after retry exhaustion always runs job.Execute() locally and never
	// consults Exec — nor Inject.
	Exec ExecFunc
}

// ExecFunc executes one attempt of one shard-local sort. shard and
// attempt (1-based) identify the execution; the job is self-contained,
// so an implementation may run it in this process, another process, or
// another host — the sorted output is a pure function of the job.
type ExecFunc func(ctx context.Context, shard, attempt int, job SortJob) ([]byte, core.Resources, error)

// SortJob is the self-contained description of one shard-local sort:
// the shard's contiguous run-range payload plus the exact engine
// configuration and the pre-derived machine seed. Every field is
// exported and value-typed, so the job gob-encodes — it is the unit of
// work the process transport ships to a shard worker.
type SortJob struct {
	Payload       []byte // the shard's '#'-terminated run-range items
	FanIn         int    // local sort engine fan-in (raw; the engine normalizes)
	RunMemoryBits int64  // run-formation budget, as the coordinator partitioned with
	Tapes         int    // tape count of the shard machine
	Seed          int64  // the shard machine's coin seed, already derived per shard

	// Tape selects the shard machine's storage backend. The value
	// fields gob-encode with the job; the Wrap func field is dropped by
	// gob, so injected storage faults stay in the process that set them.
	Tape tape.Options
}

// Execute runs the job on a fresh in-process shard machine and returns
// the sorted payload with the machine's exact resource report — the
// one attempt body every execution shape (local attempt, coordinator
// fallback, worker process) runs, which is why the bytes and the
// (r, s, t) census cannot depend on where an attempt ran.
func (j SortJob) Execute() ([]byte, core.Resources, error) {
	m := core.NewMachineOpts(j.Tapes, j.Seed, j.Tape)
	defer m.Close()
	m.SetInput(j.Payload)
	local := algorithms.Sorter{FanIn: j.FanIn, RunMemoryBits: j.RunMemoryBits}
	if err := local.SortToTape(m, 1, algorithms.WorkTapes(m, 1)); err != nil {
		return nil, core.Resources{}, err
	}
	return m.Tape(1).Contents(), m.Resources(), nil
}

func (s Sort) shardCount() int {
	if s.Shards < 1 {
		return 1
	}
	return s.Shards
}

func (s Sort) fanIn() int {
	if s.FanIn < 2 {
		return 2
	}
	return s.FanIn
}

// SortReport is the resource census of one sharded sort: every phase
// keeps the exact (r, s, t) report of its machine, so the paper's cost
// measures remain auditable per shard.
type SortReport struct {
	Items  int   // items in the input
	Bytes  int64 // payload bytes in the input ('#' separators included)
	RunLen int   // items per initial run (0: whole input fit one run)
	Runs   int   // initial runs partitioned across the shards

	Distribute core.Resources   // the coordinator's partition scan over the input
	Shards     []core.Resources // one report per shard-local sort, in shard order
	Merge      core.Resources   // the final k-way merge machine

	// The recovery census: how hard the fleet had to work to produce
	// the (byte-identical regardless) output. All zero except Attempts
	// (== shard count) on a fault-free run.
	Attempts  int // shard-local sort attempts across all shards, fallbacks included
	Fallbacks int // shards whose range the coordinator re-ran after retry exhaustion
	Recovered int // shard attempt panics recovered across the sort
}

// Rollup aggregates the per-shard reports into the max view (the
// parallel wall-clock analogue: shards run concurrently) and the sum
// view (total work across the fleet).
func (r SortReport) Rollup() Agg {
	a := Agg{Shards: len(r.Shards)}
	for _, res := range r.Shards {
		a.SumScans += res.Scans()
		a.SumMemoryBits += res.PeakMemoryBits
		a.SumSteps += res.Steps
		if res.Scans() > a.MaxScans {
			a.MaxScans = res.Scans()
		}
		if res.PeakMemoryBits > a.MaxMemoryBits {
			a.MaxMemoryBits = res.PeakMemoryBits
		}
		if res.Steps > a.MaxSteps {
			a.MaxSteps = res.Steps
		}
	}
	return a
}

// CriticalPathSteps is the head-movement count along the critical
// path: the distribution scan, then the slowest shard (the locals run
// concurrently), then the merge — the model's stand-in for sharded
// wall-clock time.
func (r SortReport) CriticalPathSteps() int64 {
	return r.Distribute.Steps + r.Rollup().MaxSteps + r.Merge.Steps
}

// Agg is the max/sum rollup of per-shard resource reports.
type Agg struct {
	Shards        int
	MaxScans      int
	SumScans      int
	MaxMemoryBits int64
	SumMemoryBits int64
	MaxSteps      int64
	SumSteps      int64
}

// Merge combines two rollups into the rollup of the union of their
// fleets' work: Max fields take the larger value, Sum fields add, and
// the shard census keeps the wider fleet. It is the one place the
// cross-rollup aggregation rule lives — relalg.QueryReport folds the
// per-operator-sort rollups of a query through it.
func (a Agg) Merge(b Agg) Agg {
	out := Agg{
		SumScans:      a.SumScans + b.SumScans,
		SumMemoryBits: a.SumMemoryBits + b.SumMemoryBits,
		SumSteps:      a.SumSteps + b.SumSteps,
	}
	out.Shards = max(a.Shards, b.Shards)
	out.MaxScans = max(a.MaxScans, b.MaxScans)
	out.MaxMemoryBits = max(a.MaxMemoryBits, b.MaxMemoryBits)
	out.MaxSteps = max(a.MaxSteps, b.MaxSteps)
	return out
}

// String renders the rollup in the (r, s) order of the paper.
func (a Agg) String() string {
	return fmt.Sprintf("shards=%d r: max=%d sum=%d, s bits: max=%d sum=%d, steps: max=%d sum=%d",
		a.Shards, a.MaxScans, a.SumScans, a.MaxMemoryBits, a.SumMemoryBits, a.MaxSteps, a.SumSteps)
}

// Run sorts the '#'-terminated input across the configured shards and
// returns the sorted (optionally deduplicated) output bytes with the
// full resource report. seed only feeds the machines' (unused by the
// deterministic sort) coin sources, derived per shard so any future
// randomized shard step stays schedule-independent.
//
// Shard attempts that fail — an Inject strike, a recovered panic —
// are retried under the Retry policy; a shard that exhausts its
// budget has its range re-run by the coordinator itself (chaos-free),
// so the output bytes and the successful attempt's resource report
// are identical to the fault-free run no matter what the fault plan
// did. Cancelling ctx stops every shard and returns the context error.
func (s Sort) Run(ctx context.Context, input []byte, seed int64) ([]byte, SortReport, error) {
	outs, rep, err := s.RunKeepRuns(ctx, input, seed)
	if err != nil {
		return nil, rep, err
	}

	// Phase 3 — combine: the shard output tapes are handed to one
	// merge machine (tape 0 is the output, tape 1+i shard i's sorted
	// run) and k-way merged through the loser tree; dedup, when
	// requested, folds into this final write.
	out, merge, err := s.Combine(nil, outs, seed)
	if err != nil {
		return nil, rep, err
	}
	rep.Merge = merge
	return out, rep, nil
}

// RunKeepRuns is Run without the final combine — the pipelined handoff
// mode. It stops after the shard-local sorts and returns the per-shard
// sorted run payloads in shard order (the returned report's Merge is
// zero: no merge machine ran). A consumer that immediately re-sorts
// can feed these runs straight into its own merge (MergeRuns), so the
// intermediate relation is never written to — or re-read from — a
// single combined tape. Deduplication, which belongs to the combine
// stage, is deferred to whichever stage finally merges.
//
// It is phases 1+2 of the sharded sort: the coordinator's distribution
// scan (Partition) and the concurrent shard-local sorts. Which runs
// land where is a pure function of (input, RunMemoryBits, shards), so
// a failed attempt can be retried or re-run by the coordinator without
// moving a single output byte.
func (s Sort) RunKeepRuns(ctx context.Context, input []byte, seed int64) ([][]byte, SortReport, error) {
	parts, rep, err := Partition(input, s.RunMemoryBits, s.shardCount(), s.TapeOpts, seed)
	if err != nil {
		return nil, rep, err
	}
	jobs := make([]SortJob, len(parts))
	for sh, part := range parts {
		jobs[sh] = SortJob{
			Payload:       part,
			FanIn:         s.FanIn,
			RunMemoryBits: s.RunMemoryBits,
			Tapes:         s.fanIn() + 2,
			Seed:          trials.Seed(seed, sh+1),
			Tape:          s.TapeOpts,
		}
	}
	outs, err := RunJobs(ctx, &rep, s.Retry, s.Inject, s.Exec, jobs)
	return outs, rep, err
}

// Partition is the distribution scan of every sharded stage, sort or
// operator scan. A coordinator machine with 1+len(broadcast) tapes
// reads input once, cutting its item stream at the run boundaries the
// engine's own run formation would produce under runMemoryBits
// (algorithms.RunPlanner, so the cut and the runs a shard forms can
// never disagree), then sweeps each broadcast payload once — shipping
// it to every shard. Split assigns the runs to shards in contiguous
// ranges, and each shard's part is its range of input itself: the
// handoff models moving a tape, not a copy. The report carries Items,
// Bytes, Runs, RunLen and Distribute.
func Partition(input []byte, runMemoryBits int64, shards int, opts tape.Options, seed int64, broadcast ...[]byte) ([][]byte, SortReport, error) {
	rep := SortReport{Bytes: int64(len(input))}
	dist := core.NewMachineOpts(1+len(broadcast), seed, opts)
	defer dist.Close()
	dist.SetInput(input)
	for i, b := range broadcast {
		dist.SetTape(i+1, b)
	}
	in := dist.Tape(0)
	if err := in.Rewind(); err != nil {
		return nil, rep, err
	}
	var (
		runStarts []int
		pos       int
		planner   = algorithms.RunPlanner{Budget: runMemoryBits}
		rd        = algorithms.NewItemReader(in, dist.Mem(), "item.shard.distribute")
	)
	for {
		item, ok, err := rd.Next()
		if err != nil {
			return nil, rep, err
		}
		if !ok {
			break
		}
		if planner.Next(int64(len(item))) {
			runStarts = append(runStarts, pos)
		}
		pos += len(item) + 1
		rep.Items++
	}
	for i := range broadcast {
		if _, err := dist.Tape(i + 1).ScanBytes(); err != nil {
			return nil, rep, err
		}
	}
	rep.Runs = len(runStarts)
	rep.RunLen = planner.RunLen
	rep.Distribute = dist.Resources()

	bound := func(run int) int {
		if run >= rep.Runs {
			return len(input)
		}
		return runStarts[run]
	}
	ranges := Split(rep.Runs, shards)
	parts := make([][]byte, len(ranges))
	for sh, rg := range ranges {
		lo, hi := bound(rg.Lo), bound(rg.Hi)
		parts[sh] = input[lo:hi:hi]
	}
	return parts, rep, nil
}

// Combine k-way merges the per-shard sorted outputs on one merge
// machine (tape 0 is the output, tape 1+i shard i's sorted run), with
// the configured dedup folded into the final write — phase 3 of Run
// and MergeRuns, and the combine of the sharded anti-merge, whose
// disjoint ordered outputs it merges with Dedup false. The merged
// bytes are appended to dst; a nil dst gets a slice of their own.
func (s Sort) Combine(dst []byte, outs [][]byte, seed int64) ([]byte, core.Resources, error) {
	return mergeJob{Runs: outs, Dedup: s.Dedup, Seed: seed, Tape: s.TapeOpts}.execute(dst)
}

// mergeJob is one merge machine's work: k-way merge Runs (tape 1+i
// holds run i) onto tape 0 through the loser tree, deduplicating when
// Dedup is set. It is the body of Combine and of MergeRuns' shard-local
// merges.
type mergeJob struct {
	Runs  [][]byte
	Dedup bool
	Seed  int64
	Tape  tape.Options
}

// Execute runs the merge on a fresh machine and returns the merged
// output with the machine's exact resource report.
func (j mergeJob) Execute() ([]byte, core.Resources, error) { return j.execute(nil) }

// execute is Execute with the merged output appended to dst (a fresh
// slice when dst is nil).
func (j mergeJob) execute(dst []byte) ([]byte, core.Resources, error) {
	m := core.NewMachineOpts(len(j.Runs)+1, j.Seed, j.Tape)
	defer m.Close()
	srcs := make([]int, len(j.Runs))
	for i, r := range j.Runs {
		m.SetTape(i+1, r)
		srcs[i] = i + 1
	}
	if err := algorithms.MergeTapes(m, 0, srcs, j.Dedup); err != nil {
		return nil, core.Resources{}, err
	}
	if dst == nil {
		return m.Tape(0).Contents(), m.Resources(), nil
	}
	return m.Tape(0).AppendContents(dst), m.Resources(), nil
}

// MergeRuns is the consuming half of the pipelined handoff: it takes
// pre-formed sorted runs (typically the per-shard tapes a RunKeepRuns
// stage or a sharded anti-merge handed over) and produces the fully
// merged, optionally deduplicated output — a sharded sort whose
// distribution scan and run formation have already been paid for by
// the producing stage. Contiguous run ranges go to shard-local merge
// machines under the same Split rule (no dedup: cross-range duplicates
// meet only in the final combine), then the shard outputs are k-way
// merged exactly like Run's phase 3. Shard attempts run through
// RunJobs like sort attempts; they always execute in-process (Exec
// ships sorts only), while Inject applies as usual.
//
// The report's Distribute is zero — no coordinator scan runs, which is
// the point — and Items/Bytes are provenance metadata computed from
// the handed-over payloads, not charged to any machine. The merged
// output is appended to dst, as Combine appends it.
func (s Sort) MergeRuns(ctx context.Context, dst []byte, runs [][]byte, seed int64) ([]byte, SortReport, error) {
	rep := SortReport{Runs: len(runs)}
	for _, r := range runs {
		rep.Bytes += int64(len(r))
		rep.Items += bytes.Count(r, separator)
	}

	ranges := Split(len(runs), s.shardCount())
	jobs := make([]mergeJob, len(ranges))
	for sh, rg := range ranges {
		jobs[sh] = mergeJob{Runs: runs[rg.Lo:rg.Hi], Seed: trials.Seed(seed, sh+1), Tape: s.TapeOpts}
	}
	outs, err := RunJobs(ctx, &rep, s.Retry, s.Inject, nil, jobs)
	if err != nil {
		return nil, rep, err
	}

	out, merge, err := s.Combine(dst, outs, seed)
	if err != nil {
		return nil, rep, err
	}
	rep.Merge = merge
	return out, rep, nil
}
