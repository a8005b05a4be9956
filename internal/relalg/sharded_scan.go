package relalg

// sharded_scan.go distributes the two operator scans that are not
// sorts — the difference's anti-merge and the product's paired scan —
// across shard-local machines, closing the "only sorts distribute"
// gap. The sorted left input is partitioned into contiguous run ranges
// by the same fixed-count rule the sort's distribution uses
// (algorithms.RunPlanner under the evaluator's run-formation budget)
// and the ranges are assigned by the same shard.Split rule; each shard
// streams its left range against a broadcast copy of the right side on
// its own machine, running exactly the coordinator's scan body
// (antiMergeTapes / productTapes). Both scans emit output in left-input
// order, so the per-shard outputs are disjoint and concatenate to the
// unsharded bytes: the anti-merge combine is a degenerate k-way merge
// over already-disjoint ordered tapes, the product combine a plain
// concatenation sweep. Shard attempts run through shard.RunStage, the
// same retry → coordinator-fallback loop as sort attempts: recovery may
// move the attempt census, never a byte.

import (
	"context"

	"extmem/internal/algorithms"
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

// scanShards resolves how many shard machines operator scans use: the
// built-in sharded path's count, or the planner's fleet ceiling in
// plan mode. The zero evaluator keeps the historical single-machine
// scans bit for bit.
func (ev Evaluator) scanShards() int {
	if ev.Plan != nil {
		if n := ev.Plan.Budget.MaxShards; n >= 1 {
			return n
		}
		return 1
	}
	if ev.Shards >= 1 {
		return ev.Shards
	}
	return 0
}

// scanShardCount is the shard count of one operator scan: the
// planner's per-input choice in plan mode (clamped to the left
// input's runs), the evaluator's fixed count otherwise.
func (c *evalCtx) scanShardCount(l int) int {
	n := c.ev.scanShards()
	if n >= 1 && c.ev.Plan != nil {
		data := c.m.Tape(l).Contents()
		n = c.ev.Plan.ChooseScan(countItems(data), int64(len(data))).Shards
	}
	return n
}

// antiMergeOp routes the difference's anti-merge: shard machines on
// the sharded path, the coordinator's own scan otherwise.
func (c *evalCtx) antiMergeOp(l, r, dst int) error {
	if n := c.scanShardCount(l); n >= 1 {
		return c.shardedScan(ScanOpDiff, l, r, dst, n)
	}
	return c.antiMerge(l, r, dst)
}

// productOp routes the product's paired scan, like antiMergeOp.
func (c *evalCtx) productOp(l, r, dst int) error {
	if n := c.scanShardCount(l); n >= 1 {
		return c.shardedScan(ScanOpProduct, l, r, dst, n)
	}
	return c.product(l, r, dst)
}

// shardedScan runs one operator scan (op = ScanOpDiff or ScanOpProduct)
// across shards shard-local machines and installs the combined output
// on dst of the query machine via SwapTape — the scan-side analogue of
// shard.Sort.SortTape.
func (c *evalCtx) shardedScan(op string, l, r, dst, shards int) error {
	outs, rep, err := c.scanShardsRun(op, l, r, shards)
	if err != nil {
		return err
	}

	// Phase 3 — combine. Anti-merge outputs are sorted and disjoint
	// (contiguous ranges of a sorted, deduplicated left input), so the
	// k-way merge degenerates to their concatenation; product outputs
	// are in left order but not item-sorted, so they concatenate on a
	// plain sweep machine instead.
	mm := core.NewMachineOpts(shards+1, c.ev.Seed, c.ev.TapeOpts)
	defer mm.Close()
	for i, out := range outs {
		mm.SetTape(i+1, out)
	}
	if op == ScanOpDiff {
		srcs := make([]int, shards)
		for i := range outs {
			srcs[i] = i + 1
		}
		if err := algorithms.MergeTapes(mm, 0, srcs, false); err != nil {
			return err
		}
	} else {
		out := mm.Tape(0)
		for i := range outs {
			data, err := mm.Tape(i + 1).ScanBytes()
			if err != nil {
				return err
			}
			if err := out.WriteBlock(data); err != nil {
				return err
			}
		}
	}
	rep.Merge = mm.Resources()
	c.m.SwapTape(dst, mm.Tape(0).Contents())
	if c.ev.Report != nil {
		c.ev.Report.recordScan(rep)
	}
	return nil
}

// shardedScanRuns is the merge-free variant for pipelined consumers:
// the per-shard outputs are returned as-is (for ScanOpDiff they are
// sorted, disjoint runs) and the combine machine never runs — the
// report's Merge stays zero.
func (c *evalCtx) shardedScanRuns(op string, l, r, shards int) ([][]byte, error) {
	outs, rep, err := c.scanShardsRun(op, l, r, shards)
	if err != nil {
		return nil, err
	}
	if c.ev.Report != nil {
		c.ev.Report.recordScan(rep)
	}
	return outs, nil
}

// scanShardsRun is phases 1+2 of a sharded operator scan: the
// coordinator's partition + broadcast scan, then the concurrent
// shard-local scans.
func (c *evalCtx) scanShardsRun(op string, l, r, shards int) ([][]byte, ScanReport, error) {
	left := c.m.Tape(l).Contents()
	right := c.m.Tape(r).Contents()
	rep := ScanReport{Op: op, SortReport: shard.SortReport{Bytes: int64(len(left))}}

	// Phase 1 — partition: the coordinator scans the left input once,
	// cutting it at the run boundaries the sort engine would form, and
	// sweeps the right side once to model broadcasting it to the fleet.
	dist := core.NewMachineOpts(2, c.ev.Seed, c.ev.TapeOpts)
	defer dist.Close()
	dist.SetInput(left)
	dist.SetTape(1, right)
	in := dist.Tape(0)
	if err := in.Rewind(); err != nil {
		return nil, rep, err
	}
	var (
		runStarts []int
		pos       int
		planner   = algorithms.RunPlanner{Budget: c.ev.scanRunBits()}
	)
	for {
		item, ok, err := algorithms.ReadItem(in, dist.Mem(), "item.relalg.partition")
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
	if _, err := dist.Tape(1).ScanBytes(); err != nil {
		return nil, rep, err
	}
	rep.Runs = len(runStarts)
	rep.RunLen = planner.RunLen
	rep.Distribute = dist.Resources()

	// Phase 2 — shard-local scans: contiguous run ranges of the left
	// input, each streamed against the broadcast right side on its own
	// machine, concurrently, with retry and coordinator fallback. Chaos
	// (Inject) and the transport seam (ExecScan) apply to budgeted
	// attempts only; the coordinator's fallback runs the job itself.
	ranges := shard.Split(rep.Runs, shards)
	bound := func(runIdx int) int {
		if runIdx >= rep.Runs {
			return len(left)
		}
		return runStarts[runIdx]
	}
	outs, reps, census, err := shard.RunStage(c.ctx, shards, c.ev.Retry, c.ev.Inject,
		func(ctx context.Context, sh, attempt int, chaos bool) ([]byte, core.Resources, error) {
			rg := ranges[sh]
			job := ScanJob{
				Op:    op,
				Left:  left[bound(rg.Lo):bound(rg.Hi)],
				Right: right,
				Seed:  trials.Seed(c.ev.Seed, sh+1),
				Tape:  c.ev.TapeOpts,
			}
			if chaos && c.ev.ExecScan != nil {
				return c.ev.ExecScan(ctx, sh, attempt, job)
			}
			return job.Execute()
		})
	rep.Shards = reps
	rep.Attempts, rep.Fallbacks, rep.Recovered = census.Attempts, census.Fallbacks, census.Recovered
	return outs, rep, err
}
