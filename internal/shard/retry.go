package shard

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"extmem/internal/core"
)

// RetryPolicy bounds how often a failed shard is re-executed before
// the coordinator gives up on the shard machine and degrades to the
// single-machine path. Retrying is semantics-free on this execution
// layer: every shard's work is a pure function of its inputs — trial
// results of (seed, global index), sorted run ranges of (input,
// RunMemoryBits) — so a re-execution provably reproduces the bytes
// the failed attempt would have produced.
type RetryPolicy struct {
	MaxAttempts int           // total attempts per shard; < 1 means 1 (no retry)
	BaseDelay   time.Duration // backoff before the second attempt; 0 retries immediately
	MaxDelay    time.Duration // cap on the backoff growth; 0 means uncapped
}

// maxAttempts is the effective attempt budget (at least 1).
func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay before the retry following the given
// 1-based failed attempt: BaseDelay doubled per failure, capped at
// MaxDelay. With MaxDelay == 0 (uncapped) the doubling still clamps at
// the last representable value: time.Duration is an int64 of
// nanoseconds, and letting the product wrap negative would turn the
// longest waits into no wait at all (sleep treats d <= 0 as "don't").
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		return 0
	}
	for i := 1; i < attempt; i++ {
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
		if d > math.MaxInt64/2 {
			break
		}
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// sleep waits for d or until ctx is cancelled, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// InjectFunc is the chaos hook of a shard stage: when non-nil it runs
// before each budgeted attempt (attempt is 1-based) and may sleep,
// return an error, or panic — all three are treated as that attempt of
// that shard failing. internal/faults derives deterministic hooks from
// seed-keyed fault plans; the fallback never consults the hook, because
// it models the coordinator doing the work itself rather than the
// faulty shard machine.
type InjectFunc func(shard, attempt int) error

// StageAttempt runs one attempt of one shard of a stage and returns the
// shard's output with its machine's exact resource report. shard and
// attempt (1-based) identify the execution. chaos is false only on the
// coordinator's fallback, which must do the shard's work itself: in
// this process, with no transport and no chaos hook.
type StageAttempt func(ctx context.Context, shard, attempt int, chaos bool) ([]byte, core.Resources, error)

// Census is the recovery census of one stage. All zero except Attempts
// (== shard count) on a fault-free run. Every failed budgeted attempt
// is either retried or spends its shard's budget, so a completed stage
// had Retries + Fallbacks failed budgeted attempts.
type Census struct {
	Attempts  int // attempts across all shards, fallbacks included
	Retries   int // failed attempts followed by another budgeted attempt
	Recovered int // attempt panics recovered, fallbacks included
	Fallbacks int // shards the coordinator re-ran after retry exhaustion
}

func (c *Census) add(o Census) {
	c.Attempts += o.Attempts
	c.Retries += o.Retries
	c.Recovered += o.Recovered
	c.Fallbacks += o.Fallbacks
}

// PanicError is a panic recovered from a shard attempt: RunStage
// converts the panic into this typed error, the attempt counts as
// failed, and the retry → fallback path takes over instead of the
// process dying.
type PanicError struct {
	Shard int    // index of the shard whose attempt panicked
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("shard: shard %d panicked: %v", e.Shard, e.Value)
}

// Unwrap exposes a panic value that was itself an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// RunStage runs one attempt loop per shard, all shards concurrently,
// and returns the per-shard outputs and resource reports in shard order
// with the stage's census. It is the one retry loop of the execution
// layer — sorts, merges, operator scans and trial fleets all run their
// shard attempts through it — and its rule is:
//
//   - If the run's context is cancelled, the stage ends at once with
//     the context's error.
//   - Any other attempt error — an inject strike, a recovered panic, a
//     dead worker, a plain error — uses up one attempt of the retry
//     budget, after the policy's backoff. Once the budget is spent the
//     coordinator runs the shard's work itself (chaos == false).
//
// inject, when non-nil, is consulted before every budgeted attempt and
// never by the fallback. A fallback that fails ends the stage with its
// error; the first error that ends a shard cancels its siblings. Shard
// work is input-pure, so recovery moves the census, never a byte.
func RunStage(ctx context.Context, shards int, retry RetryPolicy, inject InjectFunc, attempt StageAttempt) ([][]byte, []core.Resources, Census, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := &stage{retry: retry, inject: inject, attempt: attempt}
	st.ctx, st.cancel = context.WithCancel(ctx)
	defer st.cancel()
	outs := make([][]byte, shards)
	reps := make([]core.Resources, shards)
	var wg sync.WaitGroup
	for sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Census
			out, res, err := st.run(sh, &c)
			outs[sh], reps[sh] = out, res
			st.mu.Lock()
			defer st.mu.Unlock()
			st.census.add(c)
			if err != nil && st.err == nil {
				st.err = err
				st.cancel()
			}
		}()
	}
	wg.Wait()
	if st.err != nil {
		return nil, reps, st.census, st.err
	}
	return outs, reps, st.census, nil
}

// RunJobs runs one machine stage — a sort's shard-local sorts,
// MergeRuns' shard-local merges, internal/relalg's operator scans —
// with jobs[sh] as shard sh's work, through RunStage. A budgeted
// attempt goes to exec when it is non-nil (a transport's ExecFunc or
// relalg.ScanExecFunc) and runs jobs[sh].Execute() in this process
// otherwise, which is also what the coordinator's fallback always
// does. It records the per-shard reports and the recovery census in
// rep and returns the shard outputs in shard order.
func RunJobs[J interface {
	Execute() ([]byte, core.Resources, error)
}](ctx context.Context, rep *SortReport, retry RetryPolicy, inject InjectFunc,
	exec func(ctx context.Context, shard, attempt int, job J) ([]byte, core.Resources, error), jobs []J) ([][]byte, error) {
	outs, shards, c, err := RunStage(ctx, len(jobs), retry, inject, func(ctx context.Context, sh, attempt int, chaos bool) ([]byte, core.Resources, error) {
		if chaos && exec != nil {
			return exec(ctx, sh, attempt, jobs[sh])
		}
		return jobs[sh].Execute()
	})
	rep.Shards = shards
	rep.Attempts, rep.Fallbacks, rep.Recovered = c.Attempts, c.Fallbacks, c.Recovered
	return outs, err
}

// stage is the shared state of one RunStage call.
type stage struct {
	ctx     context.Context
	cancel  context.CancelFunc
	retry   RetryPolicy
	inject  InjectFunc
	attempt StageAttempt

	mu     sync.Mutex
	census Census
	err    error // the first error that ended a shard
}

// run drives one shard through the retry rule, tallying into c.
func (st *stage) run(sh int, c *Census) ([]byte, core.Resources, error) {
	budget := st.retry.maxAttempts()
	for a := 1; ; a++ {
		if err := st.ctx.Err(); err != nil {
			return nil, core.Resources{}, err
		}
		chaos := a <= budget
		if !chaos {
			c.Fallbacks++
		}
		c.Attempts++
		out, res, err := st.try(sh, a, chaos, c)
		switch {
		case err == nil:
			return out, res, nil
		case st.ctx.Err() != nil:
			return nil, core.Resources{}, st.ctx.Err()
		case !chaos:
			return nil, core.Resources{}, err
		}
		if a < budget {
			c.Retries++
			if err := sleep(st.ctx, st.retry.Backoff(a)); err != nil {
				return nil, core.Resources{}, err
			}
		}
	}
}

// try runs one attempt: the chaos hook on budgeted attempts, then the
// attempt body, with any panic recovered into a *PanicError.
func (st *stage) try(sh, a int, chaos bool, c *Census) (out []byte, res core.Resources, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.Recovered++
			err = &PanicError{Shard: sh, Value: p, Stack: debug.Stack()}
		}
	}()
	if chaos && st.inject != nil {
		if err := st.inject(sh, a); err != nil {
			return nil, core.Resources{}, err
		}
	}
	return st.attempt(st.ctx, sh, a, chaos)
}
