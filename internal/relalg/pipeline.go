package relalg

// pipeline.go is the merge-free stage handoff: when an operator's
// consumer immediately re-sorts its output (the children of a Union —
// whatever the evaluator leaves on their tapes is concatenated and
// re-sorted on the spot), the producer's final k-way merge is pure
// waste: the consumer's sort would happily start from the producer's
// per-shard sorted runs. With Evaluator.Pipeline set, such producers
// run their sort in KeepRuns mode (shard.Sort.RunKeepRuns) and hand
// the per-shard run payloads directly to the consuming stage's merge
// (shard.Sort.MergeRuns), eliminating one full write+read of every
// intermediate relation: the producer's combine, the coordinator's
// concatenation sweep, and the consumer's distribution scan all
// disappear. Nested unions collapse entirely — their runs forward to
// the outermost consuming merge, which is where deduplication (a
// combine-stage concern) finally happens.
//
// A sorted, deduplicated item sequence is canonical, so the pipelined
// result is byte-identical to the staged one; only the census moves.
// The handoff is opt-in (Pipeline, or a planner via Plan) and only
// active on the sharded path, so the zero evaluator and the staged
// sharded path keep their historical accounting bit for bit.
//
// Both walks share one operator body, evalTape (stream.go): it leaves
// an operator's output on a tape and reports whether that tape is
// already sorted and deduplicated. The staged eval sorts what is not;
// evalRuns hands a sorted tape over as one run and an unsorted one as
// the runs of a keep-runs sort. Only the operators whose runs are
// built differently have a case of their own here: Union forwards its
// children's runs, Diff skips its combine, and Rename and the joins
// forward or expand.

import "fmt"

// pipelined reports whether the merge-free handoff is active: it is
// opt-in (Pipeline, or always under a planner) and needs the sharded
// path (KeepRuns hands over per-shard tapes).
func (c *evalCtx) pipelined() bool {
	return (c.ev.Pipeline || c.ev.Plan != nil) && c.ev.sharded()
}

// evalRuns evaluates an expression whose consumer immediately re-sorts,
// returning the result as per-shard sorted run payloads (duplicates
// possible within and across runs — the consuming merge dedups) plus
// the schema. The concatenation of a sort of the runs' union is
// exactly the relation eval would have left on a tape. Only the
// operators whose runs are built differently have a case here; any
// other is evaluated onto its tape by evalTape and handed over as one
// run when that tape is already sorted, as its shard-sorted runs
// otherwise.
func (c *evalCtx) evalRuns(e Expr) ([][]byte, Schema, error) {
	switch e := e.(type) {
	case Union:
		// Forward both children's runs: the union's own sort is the
		// consumer's sort, one level up.
		lRuns, ls, err := c.evalRuns(e.L)
		if err != nil {
			return nil, nil, err
		}
		rRuns, rs, err := c.evalRuns(e.R)
		if err != nil {
			return nil, nil, err
		}
		if !ls.Equal(rs) {
			return nil, nil, fmt.Errorf("%w: %v vs %v", ErrSchema, ls, rs)
		}
		return append(lRuns, rRuns...), ls, nil

	case Diff:
		// The sharded anti-merge's per-shard outputs are sorted and
		// disjoint — already runs; skip its combine too.
		l, ls, r, rs, err := c.evalPair(e.L, e.R)
		if err != nil {
			return nil, nil, err
		}
		if !ls.Equal(rs) {
			return nil, nil, fmt.Errorf("%w: %v vs %v", ErrSchema, ls, rs)
		}
		runs, err := c.shardedScanRuns(ScanOpDiff, l, r)
		if err != nil {
			return nil, nil, err
		}
		c.release(l)
		c.release(r)
		return runs, ls, nil

	case Rename:
		runs, schema, err := c.evalRuns(e.In)
		if err != nil {
			return nil, nil, err
		}
		if len(e.Cols) != len(schema) {
			return nil, nil, fmt.Errorf("%w: rename arity %d vs %d", ErrSchema, len(e.Cols), len(schema))
		}
		return runs, Schema(e.Cols), nil

	case EquiJoin:
		return c.evalRuns(e.expand())

	case SemiJoin:
		ex, err := e.expand(c.db)
		if err != nil {
			return nil, nil, err
		}
		return c.evalRuns(ex)
	}
	idx, schema, sorted, err := c.evalTape(e)
	if err != nil {
		return nil, nil, err
	}
	defer c.release(idx)
	if sorted {
		return [][]byte{c.m.Tape(idx).Contents()}, schema, nil
	}
	runs, err := c.sortKeepRuns(idx)
	return runs, schema, err
}

// sortKeepRuns runs the merge-free half of an operator sort: the
// sharded sort of tape idx's items stops after the shard-local sorts
// and returns the per-shard sorted payloads. The stage's report (Merge
// zero: none ran) is recorded like any operator sort's.
func (c *evalCtx) sortKeepRuns(idx int) ([][]byte, error) {
	data := c.snapshot(idx)
	runs, rep, err := c.stageSort(false, data).RunKeepRuns(c.ctx, data, c.ev.Seed)
	putBuf(data)
	if err != nil {
		return nil, err
	}
	c.record(rep)
	return runs, nil
}

// mergeRuns runs the consuming half: the handed-over runs are merged
// (and deduplicated — set semantics happen here) on the sharded merge
// path, and the result installed on dst via SwapTape.
func (c *evalCtx) mergeRuns(runs [][]byte, dst int) error {
	out, rep, err := c.stageSort(true, runs...).MergeRuns(c.ctx, getBuf(), runs, c.ev.Seed)
	if err != nil {
		return err
	}
	c.m.SwapTape(dst, out)
	putBuf(out)
	c.record(rep)
	return nil
}
