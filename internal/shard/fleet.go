package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"extmem/internal/core"
	"extmem/internal/trials"
)

// Plan partitions a fleet of Trials trials across Shards shards.
// Shards <= 0 means one shard; Shards may exceed Trials, in which case
// the surplus shards own empty ranges.
type Plan struct {
	Shards int // number of shards
	Trials int // total fleet size across all shards
}

// ShardCount is the effective shard count (at least 1).
func (p Plan) ShardCount() int {
	if p.Shards < 1 {
		return 1
	}
	return p.Shards
}

// Ranges returns the per-shard trial-index ranges: Split(Trials,
// ShardCount()).
func (p Plan) Ranges() []Range {
	return Split(p.Trials, p.ShardCount())
}

// Range is the contiguous half-open range [Lo, Hi) of global indices
// owned by one shard.
type Range struct {
	Shard  int // shard index, 0-based
	Lo, Hi int // half-open global index range
}

// Len is the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions the index range [0, n) into shards disjoint
// contiguous near-equal ranges that cover it: every range has
// ⌊n/shards⌋ or ⌈n/shards⌉ indices, with the longer ranges first. The
// split is a pure function of (n, shards) — the scheduling-free
// counterpart of the trial-seed derivation, and the rule the sharded
// sort reuses to partition initial runs.
func Split(n, shards int) []Range {
	if shards < 1 {
		shards = 1
	}
	if n < 0 {
		n = 0
	}
	out := make([]Range, shards)
	base, rem := n/shards, n%shards
	lo := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = Range{Shard: i, Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// Fleet runs a trial fleet sharded: each shard of the Plan runs its
// own trials.Engine worker pool over a disjoint contiguous range of
// global trial indices, and the per-shard result streams are
// re-interleaved into a single in-order stream. Because a trial's
// randomness derives from (Seed, global index) alone, the results,
// summary, error and OnResult sequence are byte-identical to a
// single trials.Engine run of the whole fleet — at any combination of
// shard and worker counts.
type Fleet struct {
	Plan     Plan
	Parallel int   // worker goroutines per shard; <= 0 means GOMAXPROCS
	Seed     int64 // root seed, shared by all shards

	// Retry bounds how often a shard whose engine run hard-fails (a
	// recovered trial panic) is re-executed before the fleet degrades
	// that range to a sequential single-machine run with per-trial
	// recovery. Because trial results are pure functions of (Seed,
	// global index), every re-execution reproduces the failed
	// attempt's rows exactly; the zero policy runs each shard once.
	Retry RetryPolicy

	// OnResult, if non-nil, streams results strictly in global trial
	// order (0, 1, 2, …) as the completed prefix grows, regardless of
	// which shard or worker produced them. It is invoked under an
	// internal lock and must not call back into the fleet. Retried
	// shards re-record rows already streamed; the in-order merge is
	// idempotent, so the stream never repeats or reorders.
	OnResult func(trials.Result)

	// Attempt, when non-nil, overrides how one shard attempt executes —
	// the transport seam. The default attempt is eng.Run(ctx, fn) on
	// the in-process engine; internal/transport substitutes an attempt
	// that ships the range to a worker process and streams the rows
	// back. An attempt must either complete the range (returning the
	// non-nil result slice, soft per-trial errors included, having fed
	// every row to eng.OnResult in order when it is set) or return an
	// error; an error burns one attempt of the retry budget unless the
	// run's context was cancelled (see RunStage). The degraded fallback
	// after retry exhaustion never consults Attempt — the coordinator
	// absorbs the range itself, exactly as it absorbs a dead shard
	// machine's sort range.
	Attempt AttemptFunc
}

// AttemptFunc executes one attempt of one shard's contiguous trial
// range: shard and attempt (1-based) identify the execution for
// logging and fault injection, eng carries the range (Trials, Offset),
// root seed, per-shard worker count and the in-order OnResult sink,
// and fn is the in-process trial function — the fallback a transport
// uses when the fleet's context carries no trials.Workload annotation.
type AttemptFunc func(ctx context.Context, shard, attempt int, eng trials.Engine, fn trials.Func) ([]trials.Result, error)

var _ trials.Runner = Fleet{}

// Run executes the fleet across its shards and returns the merged
// per-trial results in global trial order, their summary, and the
// first trial error in trial order — the same contract as
// trials.Engine.Run. Worker panics inside a shard are recovered
// (trials.TrialPanicError), the shard's range is retried under the
// Retry policy, and a shard that exhausts its budget falls back to a
// degraded sequential run in which a still-panicking trial becomes a
// deterministic error row instead of a process crash; the Summary's
// recovery census records retries, fallbacks and recovered panics.
// Cancelling ctx stops every shard and returns the context error.
func (f Fleet) Run(ctx context.Context, fn trials.Func) ([]trials.Result, trials.Summary, error) {
	n := f.Plan.Trials
	if n <= 0 {
		return nil, trials.Summary{}, nil
	}
	ranges := f.Plan.Ranges()
	results := make([]trials.Result, n)

	// The in-order merge stream: every shard reports completed trials
	// into the shared done-prefix tracker; whichever shard completes
	// the global prefix emits it. Shard engines already emit their own
	// range in order, so tracking a single emitted cursor suffices.
	var (
		mu      sync.Mutex
		done    []bool
		emitted int
	)
	if f.OnResult != nil {
		done = make([]bool, n)
	}
	record := func(r trials.Result) {
		mu.Lock()
		done[r.Trial] = true
		results[r.Trial] = r
		for emitted < n && done[emitted] {
			f.OnResult(results[emitted])
			emitted++
		}
		mu.Unlock()
	}

	// Every shard range runs through RunStage's retry loop: a
	// hard-failed attempt (a recovered trial panic, a dead worker) is
	// re-executed, and an exhausted budget degrades to runDegraded. A
	// surplus shard with an empty range completes without an attempt.
	var degraded atomic.Int64 // trial panics the degraded fallbacks recovered
	_, _, c, err := RunStage(ctx, len(ranges), f.Retry, nil, func(ctx context.Context, sh, attempt int, chaos bool) ([]byte, core.Resources, error) {
		rg := ranges[sh]
		if rg.Len() == 0 {
			return nil, core.Resources{}, nil
		}
		eng := trials.Engine{Trials: rg.Len(), Offset: rg.Lo, Parallel: f.Parallel, Seed: f.Seed}
		if f.OnResult != nil {
			eng.OnResult = record
		}
		var rs []trials.Result
		var err error
		switch {
		case !chaos:
			rs, err = runDegraded(ctx, eng, fn, &degraded)
		case f.Attempt != nil:
			rs, err = f.Attempt(ctx, sh, attempt, eng, fn)
		default:
			rs, _, err = eng.Run(ctx, fn)
		}
		if rs == nil {
			if err == nil {
				err = fmt.Errorf("shard: shard %d attempt %d returned neither results nor an error", sh, attempt)
			}
			return nil, core.Resources{}, err
		}
		// The range completed; err, if any, is the first soft trial
		// error, which FirstErr reconstructs after the merge.
		if f.OnResult == nil {
			copy(results[rg.Lo:rg.Hi], rs)
		}
		return nil, core.Resources{}, nil
	})
	if err != nil {
		return nil, trials.Summary{}, err
	}
	sum := trials.Summarize(results)
	sum.Retries = c.Retries
	sum.Fallbacks = c.Fallbacks
	// Every failed budgeted attempt counts as a recovered fault, as does
	// every trial panic the degraded fallbacks absorbed.
	sum.Recovered = c.Retries + c.Fallbacks + int(degraded.Load())
	return results, sum, trials.FirstErr(results)
}

// runDegraded is the single-machine fallback of a shard that
// exhausted its retry budget: the range of eng runs sequentially with
// per-trial recovery, so a trial that still panics yields a
// deterministic error row (the panic decision of an injected fault
// plan is a pure function of the trial index) and the fleet completes
// instead of crashing.
func runDegraded(ctx context.Context, eng trials.Engine, fn trials.Func, recovered *atomic.Int64) ([]trials.Result, error) {
	safe := func(i int, rng *rand.Rand) (r trials.Result) {
		defer func() {
			if p := recover(); p != nil {
				recovered.Add(1)
				r = trials.Result{Trial: i, Err: fmt.Sprintf("recovered panic: %v", p)}
			}
		}()
		return fn(i, rng)
	}
	eng.Parallel = 1
	rs, _, err := eng.Run(ctx, safe)
	return rs, err
}

// LaunchRetry returns the trials.Launcher that runs every fleet as a
// sharded Fleet with the given shard and per-shard worker counts — the
// hook experiments and commands use to shard the fleet entry points of
// internal/algorithms and internal/lowerbound without changing a
// single output byte. The fleets it builds survive worker panics by
// re-executing the failed shard range (byte-identically — trial rows
// are index-pure) up to the retry policy's attempt budget with capped
// exponential backoff (the zero policy attempts each shard once), and
// run every budgeted shard attempt through attempt (Fleet.Attempt; nil
// means in-process, a transport's Attempt puts it in a worker).
func LaunchRetry(shards, parallel int, retry RetryPolicy, attempt AttemptFunc) trials.Launcher {
	return func(n int, seed int64, onResult func(trials.Result)) trials.Runner {
		return Fleet{
			Plan:     Plan{Shards: shards, Trials: n},
			Parallel: parallel,
			Seed:     seed,
			Retry:    retry,
			OnResult: onResult,
			Attempt:  attempt,
		}
	}
}
