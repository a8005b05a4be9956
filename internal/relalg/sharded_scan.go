package relalg

// sharded_scan.go distributes the two operator scans that are not
// sorts — the difference's anti-merge and the product's paired scan —
// across shard-local machines, closing the "only sorts distribute"
// gap. The sorted left input is partitioned by the sort's own
// distribution scan (shard.Partition, under the stage's run memory),
// with the right side as its broadcast; each shard streams its left
// range against the right side on its own machine, running exactly the
// coordinator's scan body (antiMergeTapes / productTapes). Both scans
// emit output in left-input order, so the per-shard outputs are
// disjoint and concatenate to the unsharded bytes: the anti-merge
// combine is the sort's k-way combine over already-disjoint ordered
// tapes, the product combine a plain concatenation sweep. Shard
// attempts run through shard.RunJobs, the same stage runner as sort
// attempts: recovery may move the attempt census, never a byte.

import (
	"extmem/internal/core"
	"extmem/internal/shard"
	"extmem/internal/trials"
)

// Scan op identifiers as recorded in ScanReport.Op.
const (
	ScanOpDiff    = "diff"
	ScanOpProduct = "product"
)

// ScanReport is the resource census of one sharded operator scan, in
// the shape of a sort stage's shard.SortReport: Distribute is the
// coordinator's partition scan plus the broadcast read of the right
// side, Shards one report per shard-local scan, Merge the combining
// machine, and Items, Bytes, Runs and RunLen describe the partitioned
// left side.
type ScanReport struct {
	Op string // ScanOpDiff or ScanOpProduct
	shard.SortReport
}

// scanOp is the difference's anti-merge (op = ScanOpDiff) or the
// product's paired scan (ScanOpProduct) from tapes l and r onto dst:
// on shard machines on the sharded path, the coordinator's own scan
// otherwise.
func (c *evalCtx) scanOp(op string) func(l, r, dst int) error {
	return func(l, r, dst int) error {
		switch {
		case c.ev.sharded():
			return c.shardedScan(op, l, r, dst)
		case op == ScanOpDiff:
			return antiMergeTapes(c.m, l, r, dst)
		}
		return c.product(l, r, dst)
	}
}

// shardedScan runs one operator scan (op = ScanOpDiff or ScanOpProduct)
// on shard-local machines and installs the combined output on dst of
// the query machine via SwapTape.
func (c *evalCtx) shardedScan(op string, l, r, dst int) error {
	outs, rep, err := c.scanShardsRun(op, l, r)
	if err != nil {
		return err
	}

	// Phase 3 — combine. Anti-merge outputs are sorted and disjoint
	// (contiguous ranges of a sorted, deduplicated left input), so they
	// take the sort's k-way combine without dedup; product outputs are
	// in left order but not item-sorted, so they concatenate on a plain
	// sweep machine instead.
	var out []byte
	if op == ScanOpDiff {
		out, rep.Merge, err = shard.Sort{TapeOpts: c.ev.TapeOpts}.Combine(getBuf(), outs, c.ev.Seed)
	} else {
		out, rep.Merge, err = c.productCombine(outs)
	}
	if err != nil {
		return err
	}
	c.m.SwapTape(dst, out)
	putBuf(out)
	c.recordScan(rep)
	return nil
}

// productCombine is the product's combine: one sweep machine (tape 0
// the output, tape 1+i shard i's output) copies the shard outputs onto
// its output tape in shard order. The output is a pooled buffer.
func (c *evalCtx) productCombine(outs [][]byte) ([]byte, core.Resources, error) {
	mm := core.NewMachineOpts(len(outs)+1, c.ev.Seed, c.ev.TapeOpts)
	defer mm.Close()
	for i, o := range outs {
		mm.SetTape(i+1, o)
		data, err := mm.Tape(i + 1).ScanBytes()
		if err != nil {
			return nil, core.Resources{}, err
		}
		if err := mm.Tape(0).WriteBlock(data); err != nil {
			return nil, core.Resources{}, err
		}
	}
	return mm.Tape(0).AppendContents(getBuf()), mm.Resources(), nil
}

// shardedScanRuns is the merge-free variant for pipelined consumers:
// the per-shard outputs are returned as-is (for ScanOpDiff they are
// sorted, disjoint runs) and the combine machine never runs — the
// report's Merge stays zero.
func (c *evalCtx) shardedScanRuns(op string, l, r int) ([][]byte, error) {
	outs, rep, err := c.scanShardsRun(op, l, r)
	if err != nil {
		return nil, err
	}
	c.recordScan(rep)
	return outs, nil
}

// scanShardsRun is phases 1+2 of a sharded operator scan: the
// coordinator's partition of the left side with the right side as
// broadcast (shard.Partition), then the concurrent shard-local scans —
// contiguous run ranges of the left input, each streamed against the
// right side on its own machine, with retry and coordinator fallback.
// Chaos (Inject) and the transport seam (ExecScan) apply to budgeted
// attempts only; the coordinator's fallback runs the job itself.
func (c *evalCtx) scanShardsRun(op string, l, r int) ([][]byte, ScanReport, error) {
	left, right := c.snapshot(l), c.snapshot(r)
	defer putBuf(left)
	defer putBuf(right)
	shape := c.shape(true, left)
	parts, part, err := shard.Partition(left, shape.RunMemoryBits, shape.Shards, c.ev.TapeOpts, c.ev.Seed, right)
	rep := ScanReport{Op: op, SortReport: part}
	if err != nil {
		return nil, rep, err
	}
	jobs := make([]ScanJob, len(parts))
	for sh, p := range parts {
		jobs[sh] = ScanJob{
			Op:    op,
			Left:  p,
			Right: right,
			Seed:  trials.Seed(c.ev.Seed, sh+1),
			Tape:  c.ev.TapeOpts,
		}
	}
	outs, err := shard.RunJobs(c.ctx, &rep.SortReport, c.ev.Retry, c.ev.Inject, c.ev.ExecScan, jobs)
	return outs, rep, err
}
