package transport

// seams.go builds the shard-layer seam implementations —
// shard.Fleet.Attempt, shard.Sort.Exec and relalg.Evaluator.ExecScan —
// once, over an internal job-runner abstraction, so the pipe transport
// (Proc) and the TCP transport share all coordinator-side logic:
// workload shipping, strict row-order validation, cancellation
// precedence over worker faults, and WorkerError wrapping. A transport
// only decides how one job reaches one worker; what a failed or
// successful attempt means is decided here, identically for both.

import (
	"context"
	"errors"
	"fmt"

	"extmem/internal/core"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/trials"
)

// Transport is the full coordinator-side seam set a shard transport
// provides: trial-fleet attempts (the Fleet.Attempt that
// shard.LaunchRetry threads into every fleet), shard-local sort
// execution and shard-local operator-scan execution. Proc (worker
// processes over pipes) and TCP (remote workers over connections) both
// implement it; the CLIs program against it so `-transport proc` and
// `-transport tcp -workers ...` differ only in how the transport value
// is built.
type Transport interface {
	Attempt() shard.AttemptFunc
	Exec() shard.ExecFunc
	ExecScan() relalg.ScanExecFunc
}

var (
	_ Transport = (*Proc)(nil)
	_ Transport = (*TCP)(nil)
)

// runner is the internal job-execution seam: run one job on one worker
// for one (shard, attempt), streaming rows to onRow, and report the
// per-attempt chaos order.
type runner interface {
	run(ctx context.Context, sh, attempt int, job Job, onRow func(trials.Result) error) (*Done, error)
	fault(sh, attempt int) *WorkerFault
}

// attemptErr maps a failed run onto the attempt's error: the run
// context's cancellation when there is one — the cancellation killed
// the worker, and it must end the stage rather than burn a retry —
// and a WorkerError otherwise.
func attemptErr(ctx context.Context, sh, attempt int, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return &WorkerError{Shard: sh, Attempt: attempt, Err: err}
}

// attemptFunc is the shared shard.AttemptFunc over a runner. A fleet
// whose context carries a trials.Workload annotation ships it —
// workload name and spec out, rows back, validated strictly in trial
// order; the worker re-derives all randomness from (seed, global
// index), so the rows are the ones the in-process engine would
// produce, byte for byte. A fleet with no annotation (a closure with
// no wire form, or a chaos-wrapped fleet) transparently runs
// in-process. Worker death fails the attempt with a WorkerError, which
// the fleet retries and then absorbs via its degraded fallback —
// output identical either way, only the attempt census moves.
func attemptFunc(p runner) shard.AttemptFunc {
	return func(ctx context.Context, sh, attempt int, eng trials.Engine, fn trials.Func) ([]trials.Result, error) {
		w, ok := trials.WorkloadFrom(ctx)
		if !ok {
			rs, _, err := eng.Run(ctx, fn)
			return rs, err
		}
		job := Job{
			Trial: &TrialJob{
				Workload: w,
				Trials:   eng.Trials,
				Offset:   eng.Offset,
				Parallel: eng.Parallel,
				Seed:     eng.Seed,
			},
			Fault: p.fault(sh, attempt),
		}
		rs := make([]trials.Result, 0, eng.Trials)
		onRow := func(r trials.Result) error {
			if want := eng.Offset + len(rs); r.Trial != want {
				return fmt.Errorf("row for trial %d, want %d", r.Trial, want)
			}
			if len(rs) == eng.Trials {
				return fmt.Errorf("row beyond the %d-trial range", eng.Trials)
			}
			rs = append(rs, r)
			if eng.OnResult != nil {
				eng.OnResult(r)
			}
			return nil
		}
		if _, err := p.run(ctx, sh, attempt, job, onRow); err != nil {
			return nil, attemptErr(ctx, sh, attempt, err)
		}
		if len(rs) != eng.Trials {
			return nil, &WorkerError{Shard: sh, Attempt: attempt,
				Err: fmt.Errorf("worker streamed %d of %d rows", len(rs), eng.Trials)}
		}
		return rs, nil
	}
}

// machineExec is the shared coordinator side of a machine job — a
// shard-local sort (shard.SortJob) or operator scan (relalg.ScanJob)
// over a runner: wire puts the job in its frame, the output bytes and
// the shard machine's exact core.Resources report come back in the
// Done frame's MachineDone. Worker death fails the attempt with a
// WorkerError and the stage's retry → coordinator-fallback path takes
// over.
func machineExec[J any](p runner, wire func(*J) Job) func(context.Context, int, int, J) ([]byte, core.Resources, error) {
	return func(ctx context.Context, sh, attempt int, j J) ([]byte, core.Resources, error) {
		job := wire(&j)
		job.Fault = p.fault(sh, attempt)
		done, err := p.run(ctx, sh, attempt, job, nil)
		if err != nil {
			return nil, core.Resources{}, attemptErr(ctx, sh, attempt, err)
		}
		// The frame came from the worker: validate it before trusting it.
		if done.Machine == nil {
			return nil, core.Resources{}, &WorkerError{Shard: sh, Attempt: attempt,
				Err: errors.New("done frame carries no machine result")}
		}
		return done.Machine.Out, done.Machine.Resources, nil
	}
}

// sortJob and scanJob are the wire forms machineExec ships.
func sortJob(j *shard.SortJob) Job  { return Job{Sort: j} }
func scanJob(j *relalg.ScanJob) Job { return Job{Scan: j} }
