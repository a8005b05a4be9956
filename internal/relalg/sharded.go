package relalg

// sharded.go puts the streaming evaluator on the sharded execution
// layer: every operator that reaches sortDedup (Scan, Project, Union,
// Product — and through them EvalST's whole set-semantics discipline)
// can run its sort on the run-partitioned sharded path of
// internal/shard instead of the single-machine k-way engine, and the
// difference's anti-merge and the product's paired scan distribute
// too. One predicate (sharded) decides whether a stage leaves the
// query machine, and one rule (shape) picks every stage's shard count,
// fan-in and run memory: an Evaluator with zero Shards and no planner
// is the historical single-machine EvalST, bit for bit. A sorted,
// deduplicated item sequence is canonical, so the relation an operator
// leaves on its tape — and therefore the query result — is
// byte-identical at every shape; only the resource census moves, and
// it is preserved per-shard in QueryReport rather than blurred into
// the coordinator.

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
	return algorithms.EqualItemStreams(m, m.Tape(ia), m.Tape(ib))
}

// newCtx builds the evaluation context: the bounding context and the
// tape free-list.
func (ev Evaluator) newCtx(ctx context.Context, m *core.Machine) (*evalCtx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if m.NumTapes() < NumQueryTapes {
		return nil, fmt.Errorf("relalg: machine has %d tapes, need %d", m.NumTapes(), NumQueryTapes)
	}
	ec := &evalCtx{ctx: ctx, m: m, ev: ev}
	for i := m.NumTapes() - 1; i >= firstPool; i-- {
		ec.free = append(ec.free, i)
	}
	return ec, nil
}

// sharded reports whether operator stages — sorts, merges and the
// difference and product scans — run on shard machines: under a
// planner, or with a fixed shard count.
func (ev Evaluator) sharded() bool { return ev.Plan != nil || ev.Shards >= 1 }

// shape is the one rule that resolves a sharded stage's shape from its
// input (a sort's tape, a merge's handed-over runs, a scan's left
// side): the planner's per-stage choice from the input's census in
// plan mode (a scan's run memory falls back to the evaluator's when
// the budget sets none), the fixed shape otherwise — with the fan-in
// the single-machine engine would reach, so the run partitioning is
// the one it would form.
func (c *evalCtx) shape(scan bool, input ...[]byte) plan.Shape {
	if c.ev.Plan == nil {
		return plan.Shape{
			Shards:        c.ev.Shards,
			FanIn:         min(c.ev.fanInTarget(), 2+len(c.free)),
			RunMemoryBits: c.ev.runMemoryBits(),
		}
	}
	var items int
	var n int64
	for _, in := range input {
		items += countItems(in)
		n += int64(len(in))
	}
	if !scan {
		return c.ev.Plan.Choose(items, n)
	}
	sh := c.ev.Plan.ChooseScan(items, n)
	if sh.RunMemoryBits <= 0 {
		sh.RunMemoryBits = c.ev.runMemoryBits()
	}
	return sh
}

// stageSort is the shard.Sort of one sort or merge stage over input,
// shaped by shape and executed under the evaluator's retry policy,
// chaos hook, transport seam and storage.
func (c *evalCtx) stageSort(dedup bool, input ...[]byte) shard.Sort {
	sh := c.shape(false, input...)
	return shard.Sort{
		Shards:        sh.Shards,
		FanIn:         sh.FanIn,
		RunMemoryBits: sh.RunMemoryBits,
		Dedup:         dedup,
		Retry:         c.ev.Retry,
		Inject:        c.ev.Inject,
		Exec:          c.ev.Exec,
		TapeOpts:      c.ev.TapeOpts,
	}
}

// record appends one operator sort or merge stage's report, and
// recordScan one operator scan's, to the evaluator's QueryReport when
// it has one. EvalST runs operators sequentially, so no locking is
// needed.
func (c *evalCtx) record(rep shard.SortReport) {
	if c.ev.Report != nil {
		c.ev.Report.Sorts = append(c.ev.Report.Sorts, rep)
	}
}

func (c *evalCtx) recordScan(rep ScanReport) {
	if c.ev.Report != nil {
		c.ev.Report.Scans = append(c.ev.Report.Scans, rep)
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
