package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/faults"
	"extmem/internal/problems"
	"extmem/internal/shard"
	"extmem/internal/transport"
	"extmem/internal/trials"
)

// E20FaultTolerance tables the chaos determinism matrix: seed-derived
// fault plans (internal/faults) injected into the trial fleet and the
// sharded sort, swept over shard counts and retry policies, with the
// output bytes compared against the fault-free run throughout. The
// claim under test is the execution-layer converse of the repo's
// standing invariant: because every trial row and every sorted range
// is a pure function of (seed, index), recovery — panic capture,
// shard retry, coordinator fallback — can only change the attempt
// census, never a byte of output. Recoverable plans (flaky panics,
// delays) reproduce the fault-free bytes exactly; a permanent panic
// plan degrades to a deterministic per-trial error row at exactly the
// struck site. Attempt/retry tallies that depend on scheduling (how
// many strikes one engine attempt consumes varies with the worker
// interleaving) are deliberately kept out of the table, which must be
// byte-identical at any cfg.Shards × cfg.Parallel.
func E20FaultTolerance(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var b strings.Builder
	notes := "PASS: recoverable chaos (flaky panics, delays) never moved a byte at any shard count;\n" +
		"a permanent panic degraded to a deterministic error row at exactly the struck site;\n" +
		"sort-side faults recovered with byte-identical output and fault-free resource census;\n" +
		"real worker deaths (exit, SIGKILL, garbage frames) recovered identically across the process\n" +
		"boundary, and connection deaths (drops, stalls past the deadline) across the TCP boundary."

	// ---- Fleet half: fault plans over the fingerprint trial fleet.
	// The trial body is the registered fingerprint-value workload, so
	// the transport half below can ship the very same fleet to worker
	// processes and compare rows against the same baseline.
	n := cfg.fleet(32)
	fleetSeed := trials.Seed(cfg.Seed, 2000)
	w, trial := algorithms.FingerprintValueWorkload(4, 12)

	flaky := faults.Plan{Seed: cfg.Seed, Mode: faults.Panic, Rate: 0.1, Flaky: 1}
	delayed := faults.Plan{Seed: cfg.Seed, Mode: faults.Delay, Rate: 0.25, Delay: 100 * time.Microsecond}
	perm := faults.Plan{Mode: faults.Panic, Sites: []int{3}}
	// Every retry of a flaky shard consumes at least one of its sites'
	// single strikes, so a budget beyond the struck-site count can
	// never exhaust — the no-fallback guarantee the row asserts.
	flakyBudget := shard.RetryPolicy{MaxAttempts: len(flaky.StruckSites(n)) + 2}
	permBudget := shard.RetryPolicy{MaxAttempts: 2}

	baseline, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: cfg.Parallel, Seed: fleetSeed,
	}.Run(cfg.ctx(), trial)
	if err != nil {
		return failure("E20", "CHAOS-DET", err, core.Reject)
	}

	fmt.Fprintf(&b, "Chaos fleet: %d fingerprint trials, plan seed %d\n", n, cfg.Seed)
	row(&b, "%14s %7s %8s %7s %6s %6s %5s %10s", "plan", "shards",
		"struck", "rec>0", "retry?", "falls", "errs", "rows")
	fleetPlans := []struct {
		name   string
		plan   faults.Plan
		retry  shard.RetryPolicy
		degIdx int // site expected to degrade to an error row; -1 = none
	}{
		{"none", faults.Plan{}, shard.RetryPolicy{}, -1},
		{"flaky-panic", flaky, flakyBudget, -1},
		{"delay", delayed, shard.RetryPolicy{}, -1},
		{"perm-panic@3", perm, permBudget, 3},
	}
	for _, fp := range fleetPlans {
		struck := fp.plan.StruckSites(n)
		for _, shards := range []int{1, 2, 4} {
			launch := fp.plan.Trials(shard.LaunchRetry(shards, cfg.Parallel, fp.retry, nil))
			rs, sum, err := launch(n, fleetSeed, nil).Run(cfg.ctx(), trial)
			// A nil result slice is a hard failure (unrecovered panic,
			// cancellation); a non-nil err alongside rows is the standing
			// FirstErr contract — exactly what the degraded perm-panic
			// plan is expected to produce.
			if rs == nil {
				return failure("E20", "CHAOS-DET", err, core.Reject)
			}
			// What the rows should be: the fault-free baseline, except a
			// permanently struck site degrades to its deterministic
			// recovered-panic error row.
			rowsOK := true
			for i, r := range rs {
				if i == fp.degIdx {
					rowsOK = rowsOK && strings.HasPrefix(r.Err, "recovered panic:")
				} else {
					rowsOK = rowsOK && reflect.DeepEqual(r, baseline[i])
				}
			}
			rowsCol := "≡"
			if fp.degIdx >= 0 {
				rowsCol = fmt.Sprintf("deg@%d", fp.degIdx)
			}
			if !rowsOK {
				rowsCol = "DIFF"
				notes = fmt.Sprintf("FAIL: plan %s at %d shards changed rows beyond its strike schedule.", fp.name, shards)
			}
			// Scheduling-independent recovery facts only: whether any
			// panic was recovered, whether any retry happened, fallback
			// and error-row counts. (Exact retry tallies depend on how
			// many strikes one engine attempt consumed — bounded, but
			// not schedule-free.)
			wantRec := fp.plan.Mode == faults.Panic && len(struck) > 0
			if (sum.Recovered > 0) != wantRec {
				notes = fmt.Sprintf("FAIL: plan %s at %d shards: recovered>0 = %v, want %v.",
					fp.name, shards, sum.Recovered > 0, wantRec)
			}
			wantFalls := 0
			if fp.degIdx >= 0 {
				wantFalls = 1
			}
			if sum.Fallbacks != wantFalls {
				notes = fmt.Sprintf("FAIL: plan %s at %d shards: %d fallbacks, want %d.",
					fp.name, shards, sum.Fallbacks, wantFalls)
			}
			row(&b, "%14s %7d %8d %7v %6v %6d %5d %10s", fp.name, shards,
				len(struck), sum.Recovered > 0, sum.Retries > 0 || sum.Recovered > sum.Fallbacks,
				sum.Fallbacks, sum.Errors, rowsCol)
		}
	}

	// ---- Sort half: shard-targeted fault plans over the sharded sort.
	in := problems.GenMultisetYes(256, 16, rng) // 512 items of 16 bits
	enc := in.Encode()
	const (
		fanIn  = 4
		runMem = 1024
	)
	cleanOut, cleanRep, err := shard.Sort{Shards: 2, FanIn: fanIn, RunMemoryBits: runMem, TapeOpts: cfg.Storage}.
		Run(cfg.ctx(), enc, cfg.Seed)
	if err != nil {
		return failure("E20", "CHAOS-DET", err, core.Reject)
	}

	fmt.Fprintf(&b, "\nChaos sort: %d items × 16 bits, fan-in %d, run memory %d bits; faults target shard 0\n",
		512, fanIn, runMem)
	row(&b, "%14s %7s %7s %9s %5s %6s %8s %8s", "plan", "shards", "budget",
		"attempts", "rec", "falls", "output≡", "census≡")
	sortPlans := []struct {
		name             string
		plan             faults.Plan
		budget           int
		extra, rec, fall int // expected deltas over the fault-free run
	}{
		{"none", faults.Plan{}, 1, 0, 0, 0},
		{"flaky-panic@0", faults.Plan{Mode: faults.Panic, Sites: []int{0}, Flaky: 1}, 2, 1, 1, 0},
		{"perm-panic@0", faults.Plan{Mode: faults.Panic, Sites: []int{0}}, 2, 2, 2, 1},
		{"perm-error@0", faults.Plan{Mode: faults.Error, Sites: []int{0}}, 1, 1, 0, 1},
	}
	for _, sp := range sortPlans {
		for _, shards := range []int{2, 4} {
			clean, cleanR, err := shard.Sort{Shards: shards, FanIn: fanIn, RunMemoryBits: runMem, TapeOpts: cfg.Storage}.
				Run(cfg.ctx(), enc, cfg.Seed)
			if err != nil {
				return failure("E20", "CHAOS-DET", err, core.Reject)
			}
			out, rep, err := shard.Sort{
				Shards: shards, FanIn: fanIn, RunMemoryBits: runMem,
				Retry:    shard.RetryPolicy{MaxAttempts: sp.budget},
				Inject:   sp.plan.ShardInject(),
				TapeOpts: cfg.Storage,
			}.Run(cfg.ctx(), enc, cfg.Seed)
			if err != nil {
				return failure("E20", "CHAOS-DET", err, core.Reject)
			}
			outEq := bytes.Equal(out, cleanOut) && bytes.Equal(out, clean)
			censusEq := reflect.DeepEqual(rep.Shards, cleanR.Shards) &&
				reflect.DeepEqual(rep.Merge, cleanR.Merge)
			row(&b, "%14s %7d %7d %9d %5d %6d %8v %8v", sp.name, shards, sp.budget,
				rep.Attempts, rep.Recovered, rep.Fallbacks, outEq, censusEq)
			if !outEq {
				notes = fmt.Sprintf("FAIL: sort plan %s at %d shards changed the output bytes.", sp.name, shards)
			}
			if !censusEq {
				notes = fmt.Sprintf("FAIL: sort plan %s at %d shards changed the successful-attempt census.", sp.name, shards)
			}
			if rep.Attempts != shards+sp.extra || rep.Recovered != sp.rec || rep.Fallbacks != sp.fall {
				notes = fmt.Sprintf("FAIL: sort plan %s at %d shards: census (a=%d r=%d f=%d), want (a=%d r=%d f=%d).",
					sp.name, shards, rep.Attempts, rep.Recovered, rep.Fallbacks,
					shards+sp.extra, sp.rec, sp.fall)
			}
		}
	}

	// ---- Transport half: real worker faults across the process
	// boundary. The same fingerprint fleet runs with every shard range
	// shipped to a worker process, and the WorkerFault orders make the
	// worker actually die — exit(1) mid-stream, self-SIGKILL, a garbage
	// frame — not simulate it. Faults key on (shard, attempt), so the
	// census is exact and deterministic, and the recovered rows must be
	// the baseline bytes: process death is just another recoverable
	// shard fault.
	fmt.Fprintf(&b, "\nChaos transport: real worker faults, %d-trial fleet on 2 shards, retry budget 2\n", n)
	row(&b, "%14s %8s %6s %5s %5s %6s", "fault", "retries", "falls", "rec", "errs", "rows")
	procPlans := []struct {
		name                string
		fault               func(sh, attempt int) *transport.WorkerFault
		retries, falls, rec int
	}{
		{"none", nil, 0, 0, 0},
		// Shard 0's first worker exits(1) after streaming one row; the
		// retry's worker completes the range.
		{"exit@s0a1", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 && attempt == 1 {
				return &transport.WorkerFault{Exit: true, ExitAfter: 1}
			}
			return nil
		}, 1, 0, 1},
		// Shard 1's first worker streams a garbage length prefix: a
		// malformed frame is worker death too.
		{"corrupt@s1a1", func(sh, attempt int) *transport.WorkerFault {
			if sh == 1 && attempt == 1 {
				return &transport.WorkerFault{Corrupt: true}
			}
			return nil
		}, 1, 0, 1},
		// Every worker shard 0 ever gets is SIGKILLed mid-stream: the
		// budget exhausts and the coordinator absorbs the range itself.
		{"kill@s0", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 {
				return &transport.WorkerFault{Exit: true, ExitAfter: 1, Kill: true}
			}
			return nil
		}, 1, 1, 2},
	}
	for _, pp := range procPlans {
		tp := &transport.Proc{Fault: pp.fault}
		rs, sum, err := shard.Fleet{
			Plan:     shard.Plan{Shards: 2, Trials: n},
			Parallel: cfg.Parallel,
			Seed:     fleetSeed,
			Retry:    shard.RetryPolicy{MaxAttempts: 2},
			Attempt:  tp.Attempt(),
		}.Run(trials.WithWorkload(cfg.ctx(), w), trial)
		if rs == nil {
			return failure("E20", "CHAOS-DET", err, core.Reject)
		}
		rowsCol := "≡"
		if !reflect.DeepEqual(rs, baseline) {
			rowsCol = "DIFF"
			notes = fmt.Sprintf("FAIL: transport fault %s changed the recovered rows.", pp.name)
		}
		if sum.Retries != pp.retries || sum.Fallbacks != pp.falls ||
			sum.Recovered != pp.rec || sum.Errors != 0 {
			notes = fmt.Sprintf("FAIL: transport fault %s: census (retry=%d fall=%d rec=%d err=%d), want (%d %d %d 0).",
				pp.name, sum.Retries, sum.Fallbacks, sum.Recovered, sum.Errors,
				pp.retries, pp.falls, pp.rec)
		}
		row(&b, "%14s %8d %6d %5d %5d %6s", pp.name,
			sum.Retries, sum.Fallbacks, sum.Recovered, sum.Errors, rowsCol)
	}

	// The sort side of the same story: worker-process shard sorts under
	// real faults. A dead worker is an error, never a panic, so the
	// Recovered column of the census stays zero while Attempts and
	// Fallbacks move — and the output bytes and the successful attempts'
	// (r, s, t) reports match the fault-free 2-shard run exactly.
	fmt.Fprintf(&b, "\nChaos transport sort: worker-process shard sorts at 2 shards, retry budget 2\n")
	row(&b, "%14s %9s %5s %6s %8s %8s", "fault", "attempts", "rec", "falls", "output≡", "census≡")
	sortProcPlans := []struct {
		name        string
		fault       func(sh, attempt int) *transport.WorkerFault
		extra, fall int // expected deltas over the fault-free run
	}{
		{"none", nil, 0, 0},
		{"exit@s0a1", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 && attempt == 1 {
				return &transport.WorkerFault{Exit: true}
			}
			return nil
		}, 1, 0},
		{"kill@s0", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 {
				return &transport.WorkerFault{Exit: true, Kill: true}
			}
			return nil
		}, 2, 1},
	}
	for _, sp := range sortProcPlans {
		tp := &transport.Proc{Fault: sp.fault}
		out, rep, err := shard.Sort{
			Shards: 2, FanIn: fanIn, RunMemoryBits: runMem,
			Retry: shard.RetryPolicy{MaxAttempts: 2},
			Exec:  tp.Exec(), TapeOpts: cfg.Storage,
		}.Run(cfg.ctx(), enc, cfg.Seed)
		if err != nil {
			return failure("E20", "CHAOS-DET", err, core.Reject)
		}
		outEq := bytes.Equal(out, cleanOut)
		censusEq := reflect.DeepEqual(rep.Shards, cleanRep.Shards) &&
			reflect.DeepEqual(rep.Merge, cleanRep.Merge)
		row(&b, "%14s %9d %5d %6d %8v %8v", sp.name,
			rep.Attempts, rep.Recovered, rep.Fallbacks, outEq, censusEq)
		if !outEq {
			notes = fmt.Sprintf("FAIL: transport sort fault %s changed the output bytes.", sp.name)
		}
		if !censusEq {
			notes = fmt.Sprintf("FAIL: transport sort fault %s changed the successful-attempt census.", sp.name)
		}
		if rep.Attempts != 2+sp.extra || rep.Recovered != 0 || rep.Fallbacks != sp.fall {
			notes = fmt.Sprintf("FAIL: transport sort fault %s: census (a=%d r=%d f=%d), want (a=%d r=0 f=%d).",
				sp.name, rep.Attempts, rep.Recovered, rep.Fallbacks, 2+sp.extra, sp.fall)
		}
	}

	// ---- TCP transport half: the same fleet and sort with loopback TCP
	// workers, under connection-level chaos — a worker that closes the
	// connection mid-stream (Exit) and one that stalls past the attempt
	// deadline. Network death is process death: the same retry →
	// fallback ladder, the same exact census, the same bytes. Faults
	// key on (shard, attempt), so every count below is asserted
	// exactly, not merely bounded.
	tcp, tcpStop, err := transport.LocalWorkers(2)
	if err != nil {
		return failure("E20", "CHAOS-DET", err, core.Reject)
	}
	defer tcpStop()
	fmt.Fprintf(&b, "\nChaos TCP transport: connection faults, %d-trial fleet on 2 shards, retry budget 2\n", n)
	row(&b, "%14s %9s %8s %6s %5s %5s %6s", "fault", "deadline", "retries", "falls", "rec", "errs", "rows")
	tcpPlans := []struct {
		name                string
		fault               func(sh, attempt int) *transport.WorkerFault
		deadline            time.Duration
		retries, falls, rec int
	}{
		{"none", nil, 0, 0, 0, 0},
		// Shard 0's first connection is closed by the worker after one
		// row; the retry dials the next worker around the ring and
		// completes the range.
		{"drop@s0a1", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 && attempt == 1 {
				return &transport.WorkerFault{Exit: true, ExitAfter: 1}
			}
			return nil
		}, 0, 1, 0, 1},
		// Shard 1's first worker stalls a full second; the 200ms
		// attempt deadline expires the coordinator's reads, the
		// connection dies, the retry completes well inside its own
		// deadline.
		{"stall@s1a1", func(sh, attempt int) *transport.WorkerFault {
			if sh == 1 && attempt == 1 {
				return &transport.WorkerFault{Stall: time.Second}
			}
			return nil
		}, 200 * time.Millisecond, 1, 0, 1},
		// Every connection shard 0 ever gets is dropped mid-stream: the
		// budget exhausts and the coordinator absorbs the range itself,
		// chaos-free.
		{"drop@s0", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 {
				return &transport.WorkerFault{Exit: true, ExitAfter: 1}
			}
			return nil
		}, 0, 1, 1, 2},
	}
	// One transport runs every plan in turn, so each plan also starts
	// on whatever connections the plans before it left idle: the
	// census must not depend on them.
	for _, pp := range tcpPlans {
		tcp.Fault, tcp.Deadline = pp.fault, pp.deadline
		rs, sum, err := shard.Fleet{
			Plan:     shard.Plan{Shards: 2, Trials: n},
			Parallel: cfg.Parallel,
			Seed:     fleetSeed,
			Retry:    shard.RetryPolicy{MaxAttempts: 2},
			Attempt:  tcp.Attempt(),
		}.Run(trials.WithWorkload(cfg.ctx(), w), trial)
		if rs == nil {
			return failure("E20", "CHAOS-DET", err, core.Reject)
		}
		rowsCol := "≡"
		if !reflect.DeepEqual(rs, baseline) {
			rowsCol = "DIFF"
			notes = fmt.Sprintf("FAIL: TCP fault %s changed the recovered rows.", pp.name)
		}
		if sum.Retries != pp.retries || sum.Fallbacks != pp.falls ||
			sum.Recovered != pp.rec || sum.Errors != 0 {
			notes = fmt.Sprintf("FAIL: TCP fault %s: census (retry=%d fall=%d rec=%d err=%d), want (%d %d %d 0).",
				pp.name, sum.Retries, sum.Fallbacks, sum.Recovered, sum.Errors,
				pp.retries, pp.falls, pp.rec)
		}
		dl := "none"
		if pp.deadline > 0 {
			dl = pp.deadline.String()
		}
		row(&b, "%14s %9s %8d %6d %5d %5d %6s", pp.name, dl,
			sum.Retries, sum.Fallbacks, sum.Recovered, sum.Errors, rowsCol)
	}

	// And the TCP sort: a dead connection is an error, never a panic,
	// so Recovered stays zero while Attempts and Fallbacks move — and
	// the bytes and the successful attempts' census match the
	// fault-free 2-shard run exactly, same as over pipes.
	fmt.Fprintf(&b, "\nChaos TCP transport sort: loopback-TCP shard sorts at 2 shards, retry budget 2\n")
	row(&b, "%14s %9s %5s %6s %8s %8s", "fault", "attempts", "rec", "falls", "output≡", "census≡")
	sortTCPPlans := []struct {
		name        string
		fault       func(sh, attempt int) *transport.WorkerFault
		extra, fall int // expected deltas over the fault-free run
	}{
		{"none", nil, 0, 0},
		{"drop@s0a1", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 && attempt == 1 {
				return &transport.WorkerFault{Exit: true}
			}
			return nil
		}, 1, 0},
		{"drop@s0", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 {
				return &transport.WorkerFault{Exit: true}
			}
			return nil
		}, 2, 1},
	}
	for _, sp := range sortTCPPlans {
		tcp.Fault, tcp.Deadline = sp.fault, 0
		out, rep, err := shard.Sort{
			Shards: 2, FanIn: fanIn, RunMemoryBits: runMem,
			Retry: shard.RetryPolicy{MaxAttempts: 2},
			Exec:  tcp.Exec(), TapeOpts: cfg.Storage,
		}.Run(cfg.ctx(), enc, cfg.Seed)
		if err != nil {
			return failure("E20", "CHAOS-DET", err, core.Reject)
		}
		outEq := bytes.Equal(out, cleanOut)
		censusEq := reflect.DeepEqual(rep.Shards, cleanRep.Shards) &&
			reflect.DeepEqual(rep.Merge, cleanRep.Merge)
		row(&b, "%14s %9d %5d %6d %8v %8v", sp.name,
			rep.Attempts, rep.Recovered, rep.Fallbacks, outEq, censusEq)
		if !outEq {
			notes = fmt.Sprintf("FAIL: TCP sort fault %s changed the output bytes.", sp.name)
		}
		if !censusEq {
			notes = fmt.Sprintf("FAIL: TCP sort fault %s changed the successful-attempt census.", sp.name)
		}
		if rep.Attempts != 2+sp.extra || rep.Recovered != 0 || rep.Fallbacks != sp.fall {
			notes = fmt.Sprintf("FAIL: TCP sort fault %s: census (a=%d r=%d f=%d), want (a=%d r=0 f=%d).",
				sp.name, rep.Attempts, rep.Recovered, rep.Fallbacks, 2+sp.extra, sp.fall)
		}
	}

	return Result{
		ID:    "E20",
		Title: "fault-tolerant execution (chaos determinism matrix)",
		Claim: "index-pure randomness makes recovery semantics-free: injected faults under retry/fallback move the attempt census, never the output bytes",
		Table: b.String(),
		Notes: notes,
	}
}
