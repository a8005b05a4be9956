package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/shard"
	"extmem/internal/transport"
	"extmem/internal/trials"
)

// E18ShardedExecution measures the sharded execution layer against the
// single-machine baselines it must not disturb. The sort half sweeps
// the shard count over one fixed instance: every row reports the
// per-shard (r, s, t) reports next to their max/sum rollup and the
// critical-path step count (distribute → slowest shard → merge), and
// verifies the output is byte-identical to the unsharded engine — the
// run-level partitioning at work. The fleet half runs the same
// fingerprint fleet at 1, 2 and 4 shards and verifies the per-trial
// result sequences are identical, the disjoint trial-index-range
// derivation at work. The table itself sweeps shard counts
// internally, so it is byte-identical at any cfg.Shards — sharding is
// an execution choice, never an observable one.
func E18ShardedExecution(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := problems.GenMultisetYes(512, 16, rng) // 1024 items of 16 bits
	enc := in.Encode()
	const (
		fanIn   = 4
		runMem  = 1024 // 64 initial runs of 16 items
		baseFan = fanIn + 2
	)

	// Single-machine baseline: the plain PR 3 engine on one machine.
	base := cfg.machine(baseFan, cfg.Seed)
	defer base.Close()
	base.SetInput(enc)
	bs := algorithms.Sorter{FanIn: fanIn, RunMemoryBits: runMem}
	if err := bs.SortToTape(base, 1, algorithms.WorkTapes(base, 1)); err != nil {
		return failure("E18", "SHARD-EXEC", err, core.Reject)
	}
	baseRes := base.Resources()
	baseOut := base.Tape(1).Contents()

	var b strings.Builder
	fmt.Fprintf(&b, "Sharded sort: %d items × 16 bits, fan-in %d, run memory %d bits; single machine: %d scans, %d bits, %d steps\n",
		1024, fanIn, runMem, baseRes.Scans(), baseRes.PeakMemoryBits, baseRes.Steps)
	row(&b, "%7s %6s %18s %6s %6s %11s %11s %9s %8s %10s %6s %6s", "shards", "runs",
		"per-shard scans", "max r", "sum r", "max s bits", "crit steps", "speedup", "output≡", "merge r", "proc≡", "tcp≡")
	notes := "PASS: outputs byte-identical at every shard count and across the process and TCP\n" +
		"transports; fleets identical at every shard count; sum(scans) ≥ single-machine scans and\n" +
		"max(shard memory) ≤ single-machine memory — sharding buys critical-path time\n" +
		"with total work, never with the answer."
	// Every row runs in-process, then with every shard attempt in a
	// worker process, then on loopback TCP workers: the bytes and the
	// whole report — per-shard (r, s, t) census included — must cross
	// the pipes and the network intact. The TCP workers are self-hosted
	// (the same serve loop a remote stworker runs), so the table exists
	// — byte-identical — in every run, configured `-transport tcp` or
	// not.
	tcpT, tcpStop, err := transport.LocalWorkers(2)
	if err != nil {
		return failure("E18", "SHARD-EXEC", err, core.Reject)
	}
	defer tcpStop()
	executors := []struct {
		name string
		tr   transport.Transport // nil: in-process
	}{{"in-process", nil}, {"process", cfg.proc()}, {"TCP", tcpT}}
	for _, shards := range []int{1, 2, 4} {
		var (
			out  []byte
			rep  shard.SortReport
			same [3]bool
		)
		for i, ex := range executors {
			s := shard.Sort{
				Shards: shards, FanIn: fanIn, RunMemoryBits: runMem,
				Retry: cfg.Retry, Inject: cfg.Faults.ShardInject(),
				TapeOpts: cfg.Storage,
			}
			if ex.tr != nil {
				s.Exec = ex.tr.Exec()
			}
			xout, xrep, err := s.Run(cfg.ctx(), enc, cfg.Seed)
			if err != nil {
				return failure("E18", "SHARD-EXEC", err, core.Reject)
			}
			if i == 0 {
				out, rep = xout, xrep
			}
			same[i] = bytes.Equal(xout, out) && reflect.DeepEqual(xrep, rep)
		}
		agg := rep.Rollup()
		perShard := make([]int, len(rep.Shards))
		for i, r := range rep.Shards {
			perShard[i] = r.Scans()
		}
		equal := bytes.Equal(out, baseOut)
		speedup := float64(baseRes.Steps) / float64(rep.CriticalPathSteps())
		row(&b, "%7d %6d %18s %6d %6d %11d %11d %8.2fx %8v %10d %6v %6v",
			shards, rep.Runs, fmt.Sprint(perShard), agg.MaxScans, agg.SumScans, agg.MaxMemoryBits,
			rep.CriticalPathSteps(), speedup, equal, rep.Merge.Scans(), same[1], same[2])
		if !equal {
			notes = "FAIL: sharded sort output differs from the single-machine engine."
		}
		for i, ex := range executors {
			if !same[i] {
				notes = fmt.Sprintf("FAIL: the %s-transport sort differs from the in-process run.", ex.name)
			}
		}
		if agg.SumScans < baseRes.Scans() {
			notes = "FAIL: rollup lost scans relative to the single machine."
		}
		if agg.MaxMemoryBits > baseRes.PeakMemoryBits {
			notes = "FAIL: a shard exceeded the single-machine memory peak."
		}
	}

	// Fleet half: the same fingerprint fleet at three shard counts must
	// produce identical per-trial result sequences — in-process and
	// with every shard range shipped to a worker process.
	fleetN := cfg.fleet(48)
	fleetSeed := trials.Seed(cfg.Seed, 1800)
	// The trial body is the registered fingerprint-value workload (each
	// row records the trial's random reduction prime p1, so the equality
	// check compares genuinely per-trial random content, not just a
	// column of identical verdicts) — registered so it has a wire form
	// the process transport can ship.
	w, trial := algorithms.FingerprintValueWorkload(4, 12)
	var ref []trials.Result
	fmt.Fprintf(&b, "\nSharded fingerprint fleet: %d trials, no-instances m=4 n=12\n", fleetN)
	row(&b, "%7s %8s %9s %14s %12s %6s %6s", "shards", "trials", "accepts", "Σ p1 (rng)", "rows ≡ 1?", "proc≡", "tcp≡")
	// The workload annotation ships the fleet by name and spec to the
	// workers; the rows come back in trial order, and nothing above the
	// launcher seam can tell.
	wctx := trials.WithWorkload(cfg.ctx(), w)
	for _, shards := range []int{1, 2, 4} {
		var (
			rs   []trials.Result
			sum  trials.Summary
			same [3]bool
		)
		for i, ex := range executors {
			f := shard.Fleet{
				Plan:     shard.Plan{Shards: shards, Trials: fleetN},
				Parallel: cfg.Parallel,
				Seed:     fleetSeed,
				Retry:    cfg.Retry,
			}
			if ex.tr != nil {
				f.Attempt = ex.tr.Attempt()
			}
			xrs, xsum, err := f.Run(wctx, trial)
			if err != nil {
				return failure("E18", "SHARD-EXEC", err, core.Reject)
			}
			if i == 0 {
				rs, sum = xrs, xsum
			}
			same[i] = reflect.DeepEqual(xrs, rs) && reflect.DeepEqual(xsum, sum)
		}
		if ref == nil {
			ref = rs
		}
		var sumP1 float64
		for _, r := range rs {
			sumP1 += r.Value
		}
		sameRef := reflect.DeepEqual(rs, ref)
		row(&b, "%7d %8d %9d %14.0f %12v %6v %6v", shards, sum.Trials, sum.Accepts, sumP1, sameRef, same[1], same[2])
		if !sameRef {
			notes = "FAIL: sharded fleet results differ from the single-shard run."
		}
		for i, ex := range executors {
			if !same[i] {
				notes = fmt.Sprintf("FAIL: the %s-transport fleet differs from the in-process run.", ex.name)
			}
		}
	}

	return Result{
		ID:    "E18",
		Title: "sharded deterministic execution (runs + trial ranges)",
		Claim: "k-machine partitioning of the ST workloads: shard runs and trial-index ranges, byte-identical outputs, per-shard (r, s, t) auditable",
		Table: b.String(),
		Notes: notes,
	}
}
