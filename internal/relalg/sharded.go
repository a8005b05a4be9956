package relalg

// sharded.go puts the streaming evaluator on the sharded execution
// layer: every operator that reaches sortDedup (Scan, Project, Union,
// Product — and through them EvalST's whole set-semantics discipline)
// can run its sort on the run-partitioned sharded path of
// internal/shard instead of the single-machine k-way engine. The
// execution shape is resolved into an algorithms.SortLauncher, the
// sort-side twin of trials.Launcher: an Evaluator with zero Shards and
// no planner is the historical single-machine EvalST, bit for bit,
// while Shards >= 1 ships each sort's initial runs to shard-local
// machines and k-way merges the results back. A sorted, deduplicated
// item sequence is canonical, so the relation an operator leaves on
// its tape — and therefore the query result — is byte-identical at
// every shard count; only the resource census moves, and it is
// preserved per-shard in QueryReport rather than blurred into the
// coordinator.

import (
	"bytes"
	"context"
	"fmt"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/plan"
	"extmem/internal/problems"
	"extmem/internal/shard"
	"extmem/internal/tape"
)

// countItems counts the '#'-terminated items of a tape payload —
// coordinator-side provenance for the planner's stage estimates (no
// tape is charged), the same off-model census shard.MergeRuns keeps.
func countItems(data []byte) int { return bytes.Count(data, []byte{problems.Separator}) }

// Evaluator is the streaming query evaluator with an injectable sort
// execution shape. The zero value is exactly the single-machine
// EvalST: every operator sort runs the k-way engine on the query
// machine with bitwise-identical accounting.
type Evaluator struct {
	// Shards >= 1 routes every operator sort through the sharded
	// run-partitioned path (shard.Sort) with that many shard-local
	// machines; 0 (the zero value) keeps the single-machine engine.
	Shards int

	// FanIn is the merge fan-in target for operator sorts; 0 means the
	// historical default (the two scratch tapes plus up to two pool
	// tapes, fan-in 4). Values below 2 mean 2. On the sharded path the
	// resolved fan-in also configures the shard-local engines, so the
	// run partitioning matches what the single machine would form.
	FanIn int

	// RunMemoryBits is the run-formation budget of operator sorts; 0
	// means algorithms.DefaultRunMemoryBits.
	RunMemoryBits int64

	// Seed feeds the shard machines' coin sources (unused by the
	// deterministic sort; kept schedule-independent for any future
	// randomized shard step).
	Seed int64

	// Retry is the per-shard retry policy of operator sorts on the
	// sharded path: a shard attempt that fails (an injected fault, a
	// recovered panic) is re-attempted up to the budget, then the
	// coordinator re-runs the range itself — the query result is
	// byte-identical throughout. The zero policy attempts once.
	Retry shard.RetryPolicy

	// Inject, when non-nil, is the chaos hook of the sharded path (see
	// shard.Sort.Inject): consulted before every shard-local sort
	// attempt, never by the coordinator's fallback.
	Inject shard.InjectFunc

	// Plan, when non-nil, is the cost-based planner: every operator
	// stage's execution shape — shard count, merge fan-in, run-formation
	// memory — is chosen per stage by minimizing the predicted critical
	// path of that stage's measured input under the planner's budget,
	// and the merge-free pipelined handoff is always active. Plan
	// implies the sharded path; Shards, FanIn and RunMemoryBits are
	// ignored (each stage gets its own shape), while Retry, Inject and
	// Exec still govern how shard attempts execute. The query result is
	// byte-identical to every other execution shape: the planner may
	// move the shape, never a byte.
	Plan *plan.Planner

	// Pipeline enables the merge-free stage handoff (see pipeline.go):
	// producers feeding a Union hand their per-shard sorted runs
	// directly to the union's merge instead of combining, concatenating
	// and re-distributing. Only active on the sharded path (Shards >= 1
	// or Plan); the query result is byte-identical, only the census
	// moves.
	Pipeline bool

	// TapeOpts selects the tape storage backend of every machine the
	// sharded path constructs (shard-local sorters, distribution and
	// combine machines — see shard.Sort.TapeOpts). The caller's query
	// machine keeps whatever storage it was built with. Storage is an
	// execution shape: the query result and every resource count are
	// identical whatever it says.
	TapeOpts tape.Options

	// Exec, when non-nil, overrides how shard-local sort attempts of
	// the sharded path execute (see shard.Sort.Exec) — the seam
	// internal/transport uses to run every operator sort's shard
	// machines in worker processes. It only applies on the sharded path
	// (Shards >= 1 or Plan); the query result is byte-identical with or
	// without it.
	Exec shard.ExecFunc

	// ExecScan, when non-nil, overrides how shard-local operator-scan
	// attempts (the difference's anti-merge, the product's paired
	// scan) execute — the scan-side twin of Exec, implemented by
	// internal/transport so planned queries honor `-transport` end to
	// end. Consulted on budgeted attempts only; the coordinator's
	// fallback always executes the ScanJob itself. The query result is
	// byte-identical with or without it.
	ExecScan ScanExecFunc

	// Report, when non-nil, collects one shard.SortReport per operator
	// sort and one ScanReport per operator scan executed on the sharded
	// path, in operator order.
	Report *QueryReport
}

// EvalST evaluates the expression over the database on the given
// machine (which must have NumQueryTapes tapes) under the evaluator's
// execution shape, returning the result relation. The result is
// byte-identical at every shard count; with the zero Evaluator the
// machine's resource report is also bitwise-identical to the
// historical single-machine evaluator. ctx bounds the evaluation's
// sharded sorts (nil means no bound; the single-machine engine, which
// never blocks, ignores it).
func (ev Evaluator) EvalST(ctx context.Context, e Expr, db DB, m *core.Machine) (*Relation, error) {
	ec, err := ev.newCtx(ctx, m)
	if err != nil {
		return nil, err
	}
	ec.db = db
	idx, schema, err := ec.eval(e)
	if err != nil {
		return nil, err
	}
	defer ec.release(idx)
	out, err := readRelationTape(m, idx, schema)
	if err != nil {
		return nil, err
	}
	if ev.Report != nil {
		ev.Report.Coordinator = m.Resources()
	}
	return out, nil
}

// Sorted returns the relation's tuples sorted by their encoded form
// (duplicates kept), computed on the machine through the evaluator's
// sort path — the ST-model counterpart of Relation.Sorted.
func (ev Evaluator) Sorted(ctx context.Context, m *core.Machine, r *Relation) ([]Tuple, error) {
	ec, err := ev.newCtx(ctx, m)
	if err != nil {
		return nil, err
	}
	idx, err := ec.acquire()
	if err != nil {
		return nil, err
	}
	defer ec.release(idx)
	if err := writeRelationTape(m, idx, r); err != nil {
		return nil, err
	}
	if err := ec.engineSort(idx, false); err != nil {
		return nil, err
	}
	out, err := readRelationTape(m, idx, r.Schema)
	if err != nil {
		return nil, err
	}
	return out.Tuples, nil
}

// EqualSet reports whether two relations hold the same set of tuples,
// decided on the machine through the evaluator's sort path: both
// sides are sorted and deduplicated (sharded when the evaluator is),
// then compared in one lockstep scan — the ST-model counterpart of
// Relation.EqualSet.
func (ev Evaluator) EqualSet(ctx context.Context, m *core.Machine, a, b *Relation) (bool, error) {
	ec, err := ev.newCtx(ctx, m)
	if err != nil {
		return false, err
	}
	ia, err := ec.acquire()
	if err != nil {
		return false, err
	}
	defer ec.release(ia)
	ib, err := ec.acquire()
	if err != nil {
		return false, err
	}
	defer ec.release(ib)
	for _, p := range []struct {
		idx int
		rel *Relation
	}{{ia, a}, {ib, b}} {
		if err := writeRelationTape(m, p.idx, p.rel); err != nil {
			return false, err
		}
		if err := ec.engineSort(p.idx, true); err != nil {
			return false, err
		}
	}
	ta, tb := m.Tape(ia), m.Tape(ib)
	mem := m.Mem()
	defer mem.Free("item.relalg.eqA")
	defer mem.Free("item.relalg.eqB")
	for {
		itemA, okA, err := algorithms.ReadItem(ta, mem, "item.relalg.eqA")
		if err != nil {
			return false, err
		}
		itemB, okB, err := algorithms.ReadItem(tb, mem, "item.relalg.eqB")
		if err != nil {
			return false, err
		}
		if okA != okB {
			return false, nil
		}
		if !okA {
			return true, nil
		}
		if algorithms.Compare(itemA, itemB) != 0 {
			return false, nil
		}
	}
}

// newCtx builds the evaluation context: the bounding context, the
// tape free-list and the resolved sort launcher.
func (ev Evaluator) newCtx(ctx context.Context, m *core.Machine) (*evalCtx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if m.NumTapes() < NumQueryTapes {
		return nil, fmt.Errorf("relalg: machine has %d tapes, need %d", m.NumTapes(), NumQueryTapes)
	}
	ec := &evalCtx{ctx: ctx, m: m, ev: ev, launch: ev.launcher()}
	for i := m.NumTapes() - 1; i >= firstPool; i-- {
		ec.free = append(ec.free, i)
	}
	return ec, nil
}

// launcher resolves the evaluator's sort execution shape: nil — the
// single-machine engine — for the zero shape, otherwise the sharded
// path with the sorter's engine configuration (so the run partitioning
// is the one the single machine would form), or the planner's choice
// for the tape's census in plan mode.
func (ev Evaluator) launcher() algorithms.SortLauncher {
	if ev.Plan == nil && ev.Shards < 1 {
		return nil
	}
	return func(ctx context.Context, sorter algorithms.Sorter, m *core.Machine, src int, _ []int) error {
		s := ev.shardSort(sorter.Dedup)
		s.FanIn, s.RunMemoryBits = sorter.FanIn, sorter.RunMemoryBits
		if ev.Plan != nil {
			data := m.Tape(src).Contents()
			sh := ev.Plan.Choose(countItems(data), int64(len(data)))
			s.Shards, s.FanIn, s.RunMemoryBits = sh.Shards, sh.FanIn, sh.RunMemoryBits
		}
		rep, err := s.SortTape(ctx, m, src, ev.Seed)
		if err != nil {
			return err
		}
		if ev.Report != nil {
			ev.Report.record(rep)
		}
		return nil
	}
}

// shardSort is the shard.Sort of one operator stage before its shape is
// chosen: the evaluator's fixed shard count, retry policy, chaos hook,
// transport seam and storage, plus the stage's dedup.
func (ev Evaluator) shardSort(dedup bool) shard.Sort {
	return shard.Sort{
		Shards:   ev.Shards,
		Dedup:    dedup,
		Retry:    ev.Retry,
		Inject:   ev.Inject,
		Exec:     ev.Exec,
		TapeOpts: ev.TapeOpts,
	}
}

// fanInTarget resolves the operator-sort fan-in target.
func (ev Evaluator) fanInTarget() int {
	switch {
	case ev.FanIn == 0:
		return sortDedupFanIn
	case ev.FanIn < 2:
		return 2
	}
	return ev.FanIn
}

// runMemoryBits resolves the operator-sort run-formation budget.
func (ev Evaluator) runMemoryBits() int64 {
	if ev.RunMemoryBits == 0 {
		return algorithms.DefaultRunMemoryBits
	}
	return ev.RunMemoryBits
}

// scanRunBits resolves the run-partition budget of sharded operator
// scans: the planner's memory budget in plan mode, the evaluator's
// run-formation budget otherwise.
func (ev Evaluator) scanRunBits() int64 {
	if ev.Plan != nil && ev.Plan.Budget.MemoryBits > 0 {
		return ev.Plan.Budget.MemoryBits
	}
	return ev.runMemoryBits()
}

// QueryReport is the resource census of one sharded query evaluation:
// one shard.SortReport per operator sort and one ScanReport per
// sharded operator scan (anti-merge, product), each in the order the
// evaluator ran them, each carrying the distribution scan, the
// per-shard (r, s, t) reports and the combining machine of that stage.
type QueryReport struct {
	Sorts []shard.SortReport
	Scans []ScanReport

	// Coordinator is the query machine's own resource report — the
	// coordinator-side scans gluing the stages together (operator
	// concatenations, selection and projection rewrites, relation I/O).
	// EvalST fills it in after the evaluation completes.
	Coordinator core.Resources
}

// record appends one operator sort's report. EvalST runs operators
// sequentially, so no locking is needed.
func (q *QueryReport) record(rep shard.SortReport) { q.Sorts = append(q.Sorts, rep) }

// recordScan appends one sharded operator scan's report.
func (q *QueryReport) recordScan(rep ScanReport) { q.Scans = append(q.Scans, rep) }

// Rollup aggregates across every operator sort and sharded scan of the
// query by folding the per-stage rollups through shard.Agg.Merge: the
// Max fields are the largest per-shard maxima any stage saw (the
// parallel wall-clock view of the widest operator), the Sum fields
// total the work of the whole fleet across all stages.
func (q *QueryReport) Rollup() shard.Agg {
	var a shard.Agg
	for _, rep := range q.Sorts {
		a = a.Merge(rep.Rollup())
	}
	for _, rep := range q.Scans {
		a = a.Merge(rep.Rollup())
	}
	return a
}

// CriticalPathSteps sums the per-stage critical paths (distribute →
// slowest shard → combine): operator stages run one after another, so
// the query's sharded wall-clock stand-in is their sequence.
func (q *QueryReport) CriticalPathSteps() int64 {
	var steps int64
	for _, rep := range q.Sorts {
		steps += rep.CriticalPathSteps()
	}
	for _, rep := range q.Scans {
		steps += rep.CriticalPathSteps()
	}
	return steps
}

// TotalSteps is the query's end-to-end wall-clock stand-in: the
// coordinator's own steps plus every stage's critical path. This is the
// honest basis for comparing execution shapes that move work between
// the coordinator and the fleet (e.g. the pipelined handoff, which
// deletes coordinator concatenations along with stage merges).
func (q *QueryReport) TotalSteps() int64 {
	return q.Coordinator.Steps + q.CriticalPathSteps()
}
