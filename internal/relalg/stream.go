package relalg

import (
	"bytes"
	"context"
	"fmt"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/tape"
)

// The streaming evaluator compiles every operator to scan and sort
// passes over machine tapes, the Theorem 11(a) strategy:
//
//   - selection: one scan;
//   - projection: one scan, then a k-way sort whose final merge pass
//     drops adjacent duplicates as it writes (set semantics);
//   - union: two scans to concatenate, then the same fused sort+dedup;
//   - difference: sort both sides, one parallel anti-merge scan;
//   - product: replicate the right side by doubling (O(log) scans),
//     then one paired scan with a single buffered outer tuple;
//   - rename: free.
//
// Each operator costs O(log N) head reversals (from its sorts), and a
// query tree has constantly many operators, so total reversals are
// O(log N) with O(1) tuples of internal memory — the data complexity
// of Theorem 11(a).

// NumQueryTapes is the number of external tapes the streaming
// evaluator expects on its machine: two merge-sort scratch tapes plus
// a pool for operand and result tapes.
const NumQueryTapes = 12

const (
	sortScratchA = 0
	sortScratchB = 1
	firstPool    = 2
)

// evalCtx carries the machine, the tape free-list and the execution
// shape (the Evaluator that built it).
type evalCtx struct {
	ctx  context.Context // bounds the evaluation; cancellation stops sharded stages
	m    *core.Machine
	db   DB
	free []int
	ev   Evaluator
}

func (c *evalCtx) acquire() (int, error) {
	if len(c.free) == 0 {
		return 0, fmt.Errorf("relalg: out of tapes (query too deep for %d tapes)", NumQueryTapes)
	}
	idx := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return idx, nil
}

func (c *evalCtx) release(idx int) { c.free = append(c.free, idx) }

// EvalST evaluates the expression over the database on the given
// machine (which must have NumQueryTapes tapes), returning the result
// relation; all tape traffic is charged to the machine's counters. It
// is the zero Evaluator: the single-machine engine. Use an Evaluator
// with Shards >= 1 (or a Plan) to run the operator sorts on the
// sharded execution layer instead.
func EvalST(e Expr, db DB, m *core.Machine) (*Relation, error) {
	return Evaluator{}.EvalST(context.Background(), e, db, m)
}

// eval returns the tape index holding the (deduplicated) result and
// its schema: the operator's tape, sorted and deduplicated unless
// evalTape left it so already.
func (c *evalCtx) eval(e Expr) (int, Schema, error) {
	idx, schema, sorted, err := c.evalTape(e)
	if err != nil || sorted {
		return idx, schema, err
	}
	return idx, schema, c.sortDedup(idx)
}

// evalTape evaluates one operator onto a tape and reports whether its
// items are already sorted and deduplicated. A selection of a sorted
// input, an anti-merge of two, a rename and a pipelined union's merge
// are; a relation's tuples, a projection, a concatenation and a
// product's pairs are not, and the caller decides how they get sorted:
// eval sorts the tape, evalRuns hands it over as shard-sorted runs.
func (c *evalCtx) evalTape(e Expr) (int, Schema, bool, error) {
	switch e := e.(type) {
	case Scan:
		r, ok := c.db[e.Rel]
		if !ok {
			return 0, nil, false, fmt.Errorf("relalg: unknown relation %q", e.Rel)
		}
		idx, err := c.acquire()
		if err != nil {
			return 0, nil, false, err
		}
		return idx, r.Schema, false, writeRelationTape(c.m, idx, r)

	case Select:
		in, schema, err := c.eval(e.In)
		if err != nil {
			return 0, nil, false, err
		}
		dst, err := c.acquire()
		if err != nil {
			return 0, nil, false, err
		}
		if err := c.filterScan(in, dst, schema, e.Pred); err != nil {
			return 0, nil, false, err
		}
		c.release(in)
		return dst, schema, true, nil

	case Project:
		in, schema, err := c.eval(e.In)
		if err != nil {
			return 0, nil, false, err
		}
		idx := make([]int, len(e.Cols))
		for i, col := range e.Cols {
			if idx[i] = schema.Col(col); idx[i] < 0 {
				return 0, nil, false, fmt.Errorf("relalg: unknown column %q", col)
			}
		}
		dst, err := c.acquire()
		if err != nil {
			return 0, nil, false, err
		}
		if err := c.rewriteScan(in, dst, func(t Tuple) (Tuple, bool) {
			nt := make(Tuple, len(idx))
			for i, j := range idx {
				nt[i] = t[j]
			}
			return nt, true
		}); err != nil {
			return 0, nil, false, err
		}
		c.release(in)
		return dst, Schema(e.Cols), false, nil

	case Union:
		if c.pipelined() {
			runs, schema, err := c.evalRuns(e)
			if err != nil {
				return 0, nil, false, err
			}
			dst, err := c.acquire()
			if err != nil {
				return 0, nil, false, err
			}
			return dst, schema, true, c.mergeRuns(runs, dst)
		}
		dst, ls, _, err := c.binary(e.L, e.R, true, func(l, r, dst int) error { return concatTapes(c.m, l, r, dst) })
		return dst, ls, false, err

	case Diff:
		dst, ls, _, err := c.binary(e.L, e.R, true, c.scanOp(ScanOpDiff))
		return dst, ls, true, err

	case Product:
		// Concatenated variable-length fields need not be in item order.
		dst, ls, rs, err := c.binary(e.L, e.R, false, c.scanOp(ScanOpProduct))
		return dst, productSchema(e, ls, rs), false, err

	case Rename:
		in, schema, err := c.eval(e.In)
		if err != nil {
			return 0, nil, false, err
		}
		if len(e.Cols) != len(schema) {
			return 0, nil, false, fmt.Errorf("%w: rename arity %d vs %d", ErrSchema, len(e.Cols), len(schema))
		}
		return in, Schema(e.Cols), true, nil

	case EquiJoin:
		return c.evalTape(e.expand())

	case SemiJoin:
		ex, err := e.expand(c.db)
		if err != nil {
			return 0, nil, false, err
		}
		return c.evalTape(ex)

	default:
		return 0, nil, false, fmt.Errorf("relalg: unknown expression %T", e)
	}
}

func (c *evalCtx) evalPair(l, r Expr) (int, Schema, int, Schema, error) {
	li, ls, err := c.eval(l)
	if err != nil {
		return 0, nil, 0, nil, err
	}
	ri, rs, err := c.eval(r)
	if err != nil {
		return 0, nil, 0, nil, err
	}
	return li, ls, ri, rs, nil
}

// binary evaluates both operands (with matching schemas when same is
// set) and runs op from their tapes onto a fresh one, releasing the
// operands' tapes.
func (c *evalCtx) binary(l, r Expr, same bool, op func(l, r, dst int) error) (int, Schema, Schema, error) {
	li, ls, ri, rs, err := c.evalPair(l, r)
	if err != nil {
		return 0, nil, nil, err
	}
	if same && !ls.Equal(rs) {
		return 0, nil, nil, fmt.Errorf("%w: %v vs %v", ErrSchema, ls, rs)
	}
	dst, err := c.acquire()
	if err != nil {
		return 0, nil, nil, err
	}
	if err := op(li, ri, dst); err != nil {
		return 0, nil, nil, err
	}
	c.release(li)
	c.release(ri)
	return dst, ls, rs, nil
}

// sortDedupFanIn is the merge fan-in sortDedup aims for: the two
// dedicated scratch tapes plus up to two pool tapes when the query
// leaves them free.
const sortDedupFanIn = 4

// sortDedup sorts the tape's items and removes adjacent duplicates in
// place — the set-semantics step of every operator that rebuilds an
// item stream.
func (c *evalCtx) sortDedup(idx int) error { return c.engineSort(idx, true) }

// engineSort sorts the tape's items in place on the evaluator's
// execution shape. On the sharded path the tape is read once, sorted
// on shard-local machines, and the identical merged bytes are swapped
// back in (SwapTape keeps the slot's pre-handoff counters; the sort is
// accounted in the recorded report). On the single-machine shape it
// runs the k-way engine with its dedup-on-output hook, so
// deduplication happens while the final merge pass is written — the
// separate dedup scan + copy-back of the legacy evaluator is gone. The
// fan-in is the two dedicated scratch tapes plus pool tapes up to the
// evaluator's target when available (the pool state is a deterministic
// function of the query, so resource reports stay reproducible).
func (c *evalCtx) engineSort(idx int, dedup bool) error {
	if c.ev.sharded() {
		// shard.Sort.Run's two phases, each with a pooled buffer: the
		// snapshot is dead once the shard sorts return, and the
		// combine may refill its bytes.
		data := c.snapshot(idx)
		s := c.stageSort(dedup, data)
		runs, rep, err := s.RunKeepRuns(c.ctx, data, c.ev.Seed)
		putBuf(data)
		if err != nil {
			return err
		}
		out, merge, err := s.Combine(getBuf(), runs, c.ev.Seed)
		if err != nil {
			return err
		}
		rep.Merge = merge
		c.m.SwapTape(idx, out)
		putBuf(out)
		c.record(rep)
		return nil
	}
	work := []int{sortScratchA, sortScratchB}
	var extras []int
	for len(work) < c.ev.fanInTarget() && len(c.free) > 0 {
		t, err := c.acquire()
		if err != nil {
			break
		}
		work = append(work, t)
		extras = append(extras, t)
	}
	defer func() {
		for i := len(extras) - 1; i >= 0; i-- {
			c.release(extras[i])
		}
	}()
	s := algorithms.Sorter{
		FanIn:         len(work),
		RunMemoryBits: c.ev.runMemoryBits(),
		Dedup:         dedup,
	}
	return s.Sort(c.m, idx, work)
}

// filterScan copies tuples satisfying the predicate.
func (c *evalCtx) filterScan(src, dst int, schema Schema, pred Predicate) error {
	var perr error
	err := c.rewriteScan(src, dst, func(t Tuple) (Tuple, bool) {
		ok, err := pred.Eval(schema, t)
		if err != nil {
			perr = err
			return nil, false
		}
		return t, ok
	})
	if perr != nil {
		return perr
	}
	return err
}

// rewriteScan streams src through fn into dst (one buffered tuple).
// The tuple's tape encoding is rebuilt in a buffer reused across
// items, so the per-tuple cost is the field-string allocations of the
// decode alone.
func (c *evalCtx) rewriteScan(src, dst int, fn func(Tuple) (Tuple, bool)) error {
	ts, td := c.m.Tape(src), c.m.Tape(dst)
	if err := rewindTruncate(td); err != nil {
		return err
	}
	if err := ts.Rewind(); err != nil {
		return err
	}
	mem := c.m.Mem()
	defer mem.Free("item.relalg.rw")
	rd := algorithms.NewItemReader(ts, mem, "item.relalg.rw")
	var enc []byte
	for {
		item, ok, err := rd.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if out, keep := fn(decodeTuple(item)); keep {
			enc = out.appendKey(enc[:0])
			if err := algorithms.WriteItem(td, enc); err != nil {
				return err
			}
		}
	}
}

// concatTapes writes src1's then src2's items to dst. Every tape holds
// '#'-terminated items only, so each side is one whole-tape sweep:
// a bulk read of src and a bulk write to dst, with the same counter
// totals as an item-by-item copy.
func concatTapes(m *core.Machine, src1, src2, dst int) error {
	td := m.Tape(dst)
	if err := rewindTruncate(td); err != nil {
		return err
	}
	for _, src := range []int{src1, src2} {
		if err := sweepItems(m, src, td); err != nil {
			return err
		}
	}
	return nil
}

// copyAll replaces dst's content with src's in one bulk sweep.
func copyAll(m *core.Machine, src, dst int) error {
	td := m.Tape(dst)
	if err := rewindTruncate(td); err != nil {
		return err
	}
	return sweepItems(m, src, td)
}

// sweepItems appends the whole item sequence of tape src to td,
// rejecting a trailing unterminated fragment (so a corrupted tape
// cannot fuse with the next item written to td).
func sweepItems(m *core.Machine, src int, td *tape.Tape) error {
	ts := m.Tape(src)
	if err := ts.Rewind(); err != nil {
		return err
	}
	data, err := ts.ScanBytes()
	if err != nil {
		return err
	}
	if len(data) > 0 && data[len(data)-1] != problems.Separator {
		return fmt.Errorf("relalg: unterminated item on tape %q", ts.Name())
	}
	return td.WriteBlock(data)
}

// antiMergeTapes emits items of l absent from r; both inputs are
// sorted and deduplicated. It runs on any machine — the coordinator's
// query machine or a shard-local machine streaming one contiguous left
// range against the broadcast right side. Both item streams go through
// ItemReaders, and a kept l item is written as its reader's record, so
// the steady-state loop allocates nothing.
func antiMergeTapes(m *core.Machine, l, r, dst int) error {
	tl, tr, td := m.Tape(l), m.Tape(r), m.Tape(dst)
	if err := rewindTruncate(td); err != nil {
		return err
	}
	if err := tl.Rewind(); err != nil {
		return err
	}
	if err := tr.Rewind(); err != nil {
		return err
	}
	mem := m.Mem()
	// l usually exhausts while r still holds a buffered item (and both
	// stay buffered on error paths); free the regions explicitly so
	// later operators' peak-memory reports are not inflated.
	defer mem.Free("item.relalg.l")
	defer mem.Free("item.relalg.r")
	rl := algorithms.NewItemReader(tl, mem, "item.relalg.l")
	rr := algorithms.NewItemReader(tr, mem, "item.relalg.r")
	var rItem []byte
	rOK := false
	advanceR := func() error {
		item, ok, err := rr.Next()
		if err != nil {
			return err
		}
		rItem, rOK = item, ok
		return nil
	}
	if err := advanceR(); err != nil {
		return err
	}
	for {
		lItem, ok, err := rl.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for rOK && string(rItem) < string(lItem) {
			if err := advanceR(); err != nil {
				return err
			}
		}
		if rOK && string(rItem) == string(lItem) {
			continue
		}
		if err := td.WriteBlock(rl.Record()); err != nil {
			return err
		}
	}
}

// product pairs every l tuple with every r tuple: the right side is
// replicated by doubling (O(log |l|) scans), then one paired scan with
// a single buffered outer tuple emits the pairs.
func (c *evalCtx) product(l, r, dst int) error {
	// The replication scratch tapes come from the pool; acquiring both
	// up front pins the same indices the per-doubling acquire/release
	// cycle of the legacy evaluator used, so tape traffic is unchanged.
	rep, err := c.acquire()
	if err != nil {
		return err
	}
	defer c.release(rep)
	tmp, err := c.acquire()
	if err != nil {
		return err
	}
	defer c.release(tmp)
	return productTapes(c.m, l, r, dst, rep, tmp)
}

// productTapes runs the product on any machine, given two scratch tapes
// for the replication doubling. Outer and inner items come from
// ItemReaders and the pair buffer is reused, so the N·M-pair loop
// allocates nothing in steady state.
func productTapes(m *core.Machine, l, r, dst, rep, tmp int) error {
	mem := m.Mem()
	// Count both sides.
	tl := m.Tape(l)
	if err := tl.Rewind(); err != nil {
		return err
	}
	lCount, err := algorithms.CountItems(tl, mem, "counter.relalg.lcount")
	if err != nil {
		return err
	}
	tr := m.Tape(r)
	if err := tr.Rewind(); err != nil {
		return err
	}
	rCount, err := algorithms.CountItems(tr, mem, "counter.relalg.rcount")
	if err != nil {
		return err
	}
	td := m.Tape(dst)
	if err := rewindTruncate(td); err != nil {
		return err
	}
	if lCount == 0 || rCount == 0 {
		return nil
	}

	// Replicate r onto the rep tape ≥ lCount times by doubling.
	if err := copyAll(m, r, rep); err != nil {
		return err
	}
	copies := 1
	for copies < lCount {
		// rep ← rep + rep via the scratch tape; concat reads rep twice,
		// two scans of the same tape.
		if err := concatTapes(m, rep, rep, tmp); err != nil {
			return err
		}
		if err := copyAll(m, tmp, rep); err != nil {
			return err
		}
		copies *= 2
	}

	// Paired scan: outer tuple i buffered while streaming its block
	// of rCount replicated inner tuples.
	if err := tl.Rewind(); err != nil {
		return err
	}
	trep := m.Tape(rep)
	if err := trep.Rewind(); err != nil {
		return err
	}
	// The last inner read never reaches the replicated tape's end, so
	// its region would stay charged after the product without this.
	defer mem.Free("item.relalg.outer")
	defer mem.Free("item.relalg.inner")
	ro := algorithms.NewItemReader(tl, mem, "item.relalg.outer")
	ri := algorithms.NewItemReader(trep, mem, "item.relalg.inner")
	var pair []byte
	for {
		outer, ok, err := ro.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for j := 0; j < rCount; j++ {
			_, ok, err := ri.Next()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("relalg: replicated tape exhausted early")
			}
			// The inner record carries the pair's separator.
			pair = append(pair[:0], outer...)
			pair = append(pair, '|')
			pair = append(pair, ri.Record()...)
			if err := td.WriteBlock(pair); err != nil {
				return err
			}
		}
	}
}

func rewindTruncate(t *tape.Tape) error {
	if err := t.Rewind(); err != nil {
		return err
	}
	t.Truncate()
	return nil
}

// encodeTuple renders a tuple as a fresh tape item (its appendKey
// encoding).
func encodeTuple(t Tuple) []byte { return t.appendKey(nil) }

// decodeTuple parses a tape item, splitting on '|' directly on the
// byte slice: one slice allocation plus one string per field, without
// materializing the whole item as an intermediate string the way
// strings.Split would.
func decodeTuple(item []byte) Tuple {
	t := make(Tuple, 0, bytes.Count(item, tupleSep)+1)
	start := 0
	for i := 0; i <= len(item); i++ {
		if i == len(item) || item[i] == '|' {
			t = append(t, string(item[start:i]))
			start = i + 1
		}
	}
	return t
}

var tupleSep = []byte{'|'}

// writeRelationTape writes the relation's tuples as items, reusing
// one encode buffer across tuples.
func writeRelationTape(m *core.Machine, idx int, r *Relation) error {
	t := m.Tape(idx)
	if err := rewindTruncate(t); err != nil {
		return err
	}
	var enc []byte
	for _, tp := range r.Tuples {
		enc = tp.appendKey(enc[:0])
		if err := algorithms.WriteItem(t, enc); err != nil {
			return err
		}
	}
	return nil
}

// readRelationTape decodes a tape back into a relation.
func readRelationTape(m *core.Machine, idx int, schema Schema) (*Relation, error) {
	t := m.Tape(idx)
	if err := t.Rewind(); err != nil {
		return nil, err
	}
	out := &Relation{Schema: schema}
	rd := algorithms.NewItemReader(t, m.Mem(), "item.relalg.read")
	for {
		item, ok, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out.Tuples = append(out.Tuples, decodeTuple(item))
	}
}
