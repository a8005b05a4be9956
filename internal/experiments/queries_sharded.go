package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/relalg"
	"extmem/internal/transport"
)

// E19ShardedQueries tables the sharded query-evaluation frontier: the
// Theorem 11 symmetric-difference query with every operator sort run
// on the shard.Sort run-partitioned path (relalg.Evaluator), swept
// over shards × merge fan-in. Each row reports the query's rollup —
// max and sum of the per-shard (r, s) reports across all operator
// sorts — and the critical-path step count (distribute → slowest
// shard → merge, summed over the operator sequence), next to a
// byte-equality check against the single-machine engine: partitioning
// initial runs across shard machines cuts the slowest machine's scan
// count while the query answer cannot move by a byte (a sorted,
// deduplicated stream is canonical). Like E18, the table sweeps the
// execution shapes internally, so it is byte-identical at any
// cfg.Shards — one extra verification runs at the configured shard
// count so the knob is genuinely exercised.
func E19ShardedQueries(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := problems.GenSetNo(512, 16, rng)
	db := relalg.InstanceDB(in)
	q := relalg.SymmetricDifference("R1", "R2")
	// 16-item initial runs over the 16-symbol tuples: the union's
	// 1024-item sort forms 64 runs, enough frontier for 4 shards.
	const runMem = 256

	// Single-machine baseline: the same engine configuration on the
	// query machine alone (the Theorem 11 evaluator).
	base := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
	defer base.Close()
	baseRel, err := relalg.Evaluator{RunMemoryBits: runMem, TapeOpts: cfg.Storage}.EvalST(cfg.ctx(), q, db, base)
	if err != nil {
		return failure("E19", "SHARD-QUERY", err, core.Reject)
	}
	baseRes := base.Resources()

	var b strings.Builder
	fmt.Fprintf(&b, "Sharded query evaluation: Q' = (R1−R2) ∪ (R2−R1), m=%d (N=%d), run memory %d bits;\n",
		512, db.Size(), runMem)
	fmt.Fprintf(&b, "single machine: %d scans, %d bits, %d steps, |Q'| = %d\n",
		baseRes.Scans(), baseRes.PeakMemoryBits, baseRes.Steps, len(baseRel.Tuples))
	row(&b, "%6s %7s %6s %6s %6s %11s %11s %9s", "fan-in", "shards", "sorts",
		"max r", "sum r", "max s bits", "crit steps", "output≡")
	notes := "PASS: outputs byte-identical at every (shards, fan-in); max per-shard scans strictly fall\n" +
		"with the shard count while sum(scans) never drops below the 1-shard fleet and no shard\n" +
		"exceeds the single-machine memory peak — the rounds-vs-local-work split, on queries."
	reports := map[[2]int]*relalg.QueryReport{}
	for _, fanIn := range []int{2, 4} {
		for _, shards := range []int{1, 2, 4} {
			rep := &relalg.QueryReport{}
			ev := relalg.Evaluator{
				Shards: shards, FanIn: fanIn, RunMemoryBits: runMem,
				Seed: cfg.Seed, Report: rep,
				Retry: cfg.Retry, Inject: cfg.Faults.ShardInject(),
				TapeOpts: cfg.Storage,
			}
			m := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
			r, err := ev.EvalST(cfg.ctx(), q, db, m)
			m.Close()
			if err != nil {
				return failure("E19", "SHARD-QUERY", err, core.Reject)
			}
			reports[[2]int{fanIn, shards}] = rep
			agg := rep.Rollup()
			equal := reflect.DeepEqual(r.Tuples, baseRel.Tuples)
			row(&b, "%6d %7d %6d %6d %6d %11d %11d %9v", fanIn, shards, len(rep.Sorts),
				agg.MaxScans, agg.SumScans, agg.MaxMemoryBits, rep.CriticalPathSteps(), equal)
			if !equal {
				notes = "FAIL: sharded query result differs from the single-machine engine."
			}
		}
	}
	for _, fanIn := range []int{2, 4} {
		single := reports[[2]int{fanIn, 1}].Rollup()
		prevMax := single.MaxScans + 1
		for _, shards := range []int{1, 2, 4} {
			agg := reports[[2]int{fanIn, shards}].Rollup()
			if agg.MaxScans >= prevMax {
				notes = fmt.Sprintf("FAIL: max(scans) did not strictly fall at fan-in %d, shards %d.", fanIn, shards)
			}
			prevMax = agg.MaxScans
			if agg.SumScans < single.SumScans {
				notes = fmt.Sprintf("FAIL: sum(scans) fell below the 1-shard fleet at fan-in %d, shards %d.", fanIn, shards)
			}
			if agg.MaxMemoryBits > baseRes.PeakMemoryBits {
				notes = fmt.Sprintf("FAIL: a shard exceeded the single-machine memory peak at fan-in %d, shards %d.", fanIn, shards)
			}
		}
	}

	// Per-shard (r, s, t) of the dominant operator sort (the union of
	// both relations, the sort with the most input items) at fan-in 4.
	fmt.Fprintf(&b, "\nper-shard (r, s, t) of the dominant sort (fan-in 4):\n")
	for _, shards := range []int{1, 2, 4} {
		rep := reports[[2]int{4, shards}]
		dom := rep.Sorts[0]
		for _, s := range rep.Sorts {
			if s.Items > dom.Items {
				dom = s
			}
		}
		parts := make([]string, len(dom.Shards))
		for i, res := range dom.Shards {
			parts[i] = fmt.Sprintf("(r=%d s=%d t=%d)", res.Scans(), res.PeakMemoryBits, res.Tapes)
		}
		row(&b, "%7d shards: %d items in %d runs → %s; merge r=%d",
			shards, dom.Items, dom.Runs, strings.Join(parts, " "), dom.Merge.Scans())
	}

	// Transport rows: the fan-in 4 evaluations again, with every
	// operator sort's AND operator scan's shard-local attempts behind a
	// transport — worker processes over pipes, then loopback TCP
	// workers. The result tuples must match the single machine and the
	// whole QueryReport — per-shard (r, s, t) of every operator sort
	// and scan — must match the in-process sharded run: the census
	// crosses the boundary intact, not merely the answer.
	transports := []struct {
		name string
		tr   transport.Transport
	}{{"proc", cfg.proc()}}
	tcpT, tcpStop, err := transport.LocalWorkers(2)
	if err != nil {
		return failure("E19", "SHARD-QUERY", err, core.Reject)
	}
	defer tcpStop()
	transports = append(transports, struct {
		name string
		tr   transport.Transport
	}{"tcp", tcpT})
	for _, tc := range transports {
		fmt.Fprintf(&b, "\n%s transport (fan-in 4): shard-local operator sorts and scans behind the transport\n", tc.name)
		row(&b, "%7s %9s %9s", "shards", "output≡", "census≡")
		for _, shards := range []int{1, 2, 4} {
			prep := &relalg.QueryReport{}
			m := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
			r, err := relalg.Evaluator{
				Shards: shards, FanIn: 4, RunMemoryBits: runMem,
				Seed: cfg.Seed, Report: prep,
				Retry: cfg.Retry, Inject: cfg.Faults.ShardInject(),
				Exec: tc.tr.Exec(), ExecScan: tc.tr.ExecScan(), TapeOpts: cfg.Storage,
			}.EvalST(cfg.ctx(), q, db, m)
			m.Close()
			if err != nil {
				return failure("E19", "SHARD-QUERY", err, core.Reject)
			}
			outEq := reflect.DeepEqual(r.Tuples, baseRel.Tuples)
			cenEq := reflect.DeepEqual(prep, reports[[2]int{4, shards}])
			row(&b, "%7d %9v %9v", shards, outEq, cenEq)
			if !outEq {
				notes = fmt.Sprintf("FAIL: the %s-transport query at %d shards differs from the single machine.", tc.name, shards)
			}
			if !cenEq {
				notes = fmt.Sprintf("FAIL: the %s-transport census at %d shards differs from the in-process run.", tc.name, shards)
			}
		}
	}

	// The configured execution shape, exercised for real: one more
	// evaluation at cfg.Shards shards (and, under -transport proc/tcp,
	// with transport-backed sort and scan attempts) must reproduce the
	// same bytes.
	cm := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
	defer cm.Close()
	cfgRel, err := cfg.transported(relalg.Evaluator{
		Shards: cfg.ShardCount(), RunMemoryBits: runMem, Seed: cfg.Seed,
		Retry: cfg.Retry, Inject: cfg.Faults.ShardInject(),
		TapeOpts: cfg.Storage,
	}).EvalST(cfg.ctx(), q, db, cm)
	if err != nil {
		return failure("E19", "SHARD-QUERY", err, core.Reject)
	}
	cfgEqual := reflect.DeepEqual(cfgRel.Tuples, baseRel.Tuples)
	fmt.Fprintf(&b, "\nconfigured-shard run: output ≡ single machine: %v\n", cfgEqual)
	if !cfgEqual {
		notes = "FAIL: the configured-shard evaluation differs from the single-machine engine."
	}

	return Result{
		ID:    "E19",
		Title: "sharded relational query evaluation",
		Claim: "Theorem 11 workloads on the k-machine split: operator sorts shard by initial runs, byte-identical answers, per-shard (r, s, t) auditable",
		Table: b.String(),
		Notes: notes,
	}
}
