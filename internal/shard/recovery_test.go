package shard_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"extmem/internal/core"
	"extmem/internal/faults"
	"extmem/internal/problems"
	"extmem/internal/shard"
	"extmem/internal/trials"
)

// The backoff schedule: doubling from BaseDelay, capped at MaxDelay,
// zero when no base is configured.
func TestRetryPolicyBackoff(t *testing.T) {
	p := shard.RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 25 * time.Millisecond}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond, 25 * time.Millisecond}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := (shard.RetryPolicy{}).Backoff(3); got != 0 {
		t.Errorf("zero policy backoff = %v, want 0", got)
	}
}

// An uncapped policy (MaxDelay == 0) must clamp the doubling instead of
// overflowing: time.Duration is an int64 of nanoseconds, and a wrapped
// negative backoff reads as "no backoff at all" to the retry sleep —
// exactly the attempts that most need spacing out.
func TestRetryPolicyBackoffOverflow(t *testing.T) {
	uncapped := shard.RetryPolicy{MaxAttempts: 200, BaseDelay: time.Second}
	cases := []struct {
		name    string
		p       shard.RetryPolicy
		attempt int
		want    time.Duration
	}{
		{"uncapped clamps instead of wrapping", uncapped, 100, time.Second << 33},
		{"the clamp is a fixed point", uncapped, 101, time.Second << 33},
		{"tiny base survives any attempt", shard.RetryPolicy{BaseDelay: 1}, 1000, 1 << 62},
		{"base beyond half range never doubles", shard.RetryPolicy{BaseDelay: time.Duration(math.MaxInt64/2 + 1)}, 10, time.Duration(math.MaxInt64/2 + 1)},
		{"maximal base is unchanged", shard.RetryPolicy{BaseDelay: time.Duration(math.MaxInt64)}, 7, time.Duration(math.MaxInt64)},
		{"capped schedules are unaffected", shard.RetryPolicy{BaseDelay: time.Second, MaxDelay: 4 * time.Second}, 50, 4 * time.Second},
	}
	for _, c := range cases {
		got := c.p.Backoff(c.attempt)
		if got < 0 {
			t.Errorf("%s: Backoff(%d) = %v, overflowed negative", c.name, c.attempt, got)
		}
		if got != c.want {
			t.Errorf("%s: Backoff(%d) = %v, want %v", c.name, c.attempt, got, c.want)
		}
	}
}

func fingerless(i int, rng *rand.Rand) trials.Result {
	return trials.Result{Trial: i, Value: float64(rng.Intn(1000))}
}

// A flaky shard (every trial of one shard panics on its first strike)
// heals under retry: rows identical to the fault-free fleet, no
// fallback, and the recovery census records the event.
func TestFleetRetryHealsFlakyShard(t *testing.T) {
	const n = 24
	want, wantSum, err := shard.Fleet{Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 7}.
		Run(nil, fingerless)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Mode: faults.Panic, Sites: []int{5, 13}, Flaky: 1}
	launch := plan.Trials(shard.LaunchRetry(4, 2, shard.RetryPolicy{MaxAttempts: 4}, nil))
	got, sum, err := launch(n, 7, nil).Run(nil, fingerless)
	if err != nil {
		t.Fatalf("flaky fleet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows moved under recovered chaos:\n%v\n%v", got, want)
	}
	if sum.Recovered < 2 || sum.Retries < 2 || sum.Fallbacks != 0 {
		t.Fatalf("census %+v: want >=2 recovered, >=2 retries, 0 fallbacks", sum)
	}
	if sum.Trials != wantSum.Trials || sum.Accepts != wantSum.Accepts || sum.Errors != wantSum.Errors {
		t.Fatalf("tallies moved: %+v vs %+v", sum, wantSum)
	}
}

// A shard whose panic outlives the retry budget degrades: the
// coordinator re-runs the range sequentially, converting the panic to
// a deterministic per-trial error row while every other row matches
// the fault-free fleet bit for bit.
func TestFleetFallbackDegradesToErrorRow(t *testing.T) {
	const n = 24
	want, _, err := shard.Fleet{Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 7}.
		Run(nil, fingerless)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Mode: faults.Panic, Sites: []int{5}}
	for _, shards := range []int{1, 3} {
		launch := plan.Trials(shard.LaunchRetry(shards, 2, shard.RetryPolicy{MaxAttempts: 2}, nil))
		got, sum, err := launch(n, 7, nil).Run(nil, fingerless)
		if got == nil {
			t.Fatalf("shards=%d: hard failure %v, want degraded rows", shards, err)
		}
		for i, r := range got {
			if i == 5 {
				if !strings.HasPrefix(r.Err, "recovered panic:") {
					t.Fatalf("shards=%d: struck row = %+v, want recovered-panic error", shards, r)
				}
				continue
			}
			if !reflect.DeepEqual(r, want[i]) {
				t.Fatalf("shards=%d: row %d moved under fallback: %+v vs %+v", shards, i, r, want[i])
			}
		}
		if sum.Fallbacks != 1 || sum.Retries != 1 || sum.Recovered < 2 || sum.Errors != 1 {
			t.Fatalf("shards=%d: census %+v", shards, sum)
		}
	}
}

// The FirstErr contract survives recovery: the degraded row is also
// the fleet's returned soft error, wrapped with its trial index.
func TestFleetFallbackFirstErr(t *testing.T) {
	plan := faults.Plan{Mode: faults.Panic, Sites: []int{2}}
	launch := plan.Trials(shard.LaunchRetry(2, 1, shard.RetryPolicy{}, nil))
	_, _, err := launch(8, 1, nil).Run(nil, fingerless)
	if err == nil || !strings.Contains(err.Error(), "trial 2: recovered panic:") {
		t.Fatalf("err = %v, want wrapped trial-2 recovered panic", err)
	}
}

// Cancelling the run context from the result stream (what the CLIs do
// when their encoder dies mid-stream) is a hard failure: sibling
// shards stop claiming work, Run reports the cancellation, and the
// worker goroutines drain.
func TestFleetCancelAbortsSiblings(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rows, executed atomic.Int64
	rs, _, err := shard.Fleet{
		Plan:     shard.Plan{Shards: 4, Trials: 1 << 20},
		Parallel: 2,
		Seed:     3,
		OnResult: func(trials.Result) {
			if rows.Add(1) == 8 {
				cancel()
			}
		},
	}.Run(ctx, func(i int, rng *rand.Rand) trials.Result {
		executed.Add(1)
		return trials.Result{Trial: i}
	})
	if rs != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want nil rows and context.Canceled", rs, err)
	}
	if n := executed.Load(); n > 1<<19 {
		t.Fatalf("siblings kept running after cancel: %d trials executed", n)
	}
	waitForGoroutines(t, before)
}

// Repeated panicking fleets leave no goroutines behind, with and
// without a retry budget.
func TestFleetNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := faults.Plan{Mode: faults.Panic, Sites: []int{0, 9}, Flaky: 1}
	for k := 0; k < 10; k++ {
		launch := plan.Trials(shard.LaunchRetry(3, 4, shard.RetryPolicy{MaxAttempts: 3}, nil))
		if _, _, err := launch(20, int64(k), nil).Run(nil, fingerless); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	waitForGoroutines(t, before)
}

// Sort-side recovery: a flaky shard heals under its budget with
// byte-identical output and a fault-free successful-attempt census; a
// permanent failure falls back to the chaos-free coordinator run with
// the same guarantee. The injected error path (attempt fails before
// the machine runs) must behave exactly like the recovered-panic path,
// and each plan strikes the shard-local merges of a pipelined
// RunKeepRuns → MergeRuns handoff just as it strikes the sorts.
func TestSortRetryAndFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	input := problems.GenMultisetYes(128, 16, rng).Encode()
	sorter := shard.Sort{Shards: 3, FanIn: 2, RunMemoryBits: 512}
	clean, cleanRep, err := sorter.Run(nil, input, 1)
	if err != nil {
		t.Fatal(err)
	}
	cleanRuns, cleanKeep, err := sorter.RunKeepRuns(nil, input, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, cleanMerge, err := sorter.MergeRuns(nil, nil, cleanRuns, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name                 string
		plan                 faults.Plan
		budget               int
		attempts, rec, falls int
	}{
		{"flaky-panic", faults.Plan{Mode: faults.Panic, Sites: []int{1}, Flaky: 1}, 3, 4, 1, 0},
		{"perm-panic", faults.Plan{Mode: faults.Panic, Sites: []int{1}}, 2, 5, 2, 1},
		{"flaky-error", faults.Plan{Mode: faults.Error, Sites: []int{1}, Flaky: 1}, 3, 4, 0, 0},
		{"perm-error", faults.Plan{Mode: faults.Error, Sites: []int{1}}, 2, 5, 0, 1},
	}
	for _, c := range cases {
		s := sorter
		s.Retry = shard.RetryPolicy{MaxAttempts: c.budget}
		s.Inject = c.plan.ShardInject()
		check := func(stage string, out, wantOut []byte, rep, want shard.SortReport) {
			t.Helper()
			if !bytes.Equal(out, wantOut) {
				t.Fatalf("%s %s: output moved under recovery", c.name, stage)
			}
			if !reflect.DeepEqual(rep.Shards, want.Shards) || !reflect.DeepEqual(rep.Merge, want.Merge) {
				t.Fatalf("%s %s: successful-attempt census moved", c.name, stage)
			}
			if rep.Attempts != c.attempts || rep.Recovered != c.rec || rep.Fallbacks != c.falls {
				t.Fatalf("%s %s: census (a=%d r=%d f=%d), want (a=%d r=%d f=%d)",
					c.name, stage, rep.Attempts, rep.Recovered, rep.Fallbacks, c.attempts, c.rec, c.falls)
			}
		}
		out, rep, err := s.Run(nil, input, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check("sort", out, clean, rep, cleanRep)

		runs, keep, err := s.RunKeepRuns(nil, input, 1)
		if err != nil {
			t.Fatalf("%s keep-runs: %v", c.name, err)
		}
		check("keep-runs", bytes.Join(runs, []byte("|")), bytes.Join(cleanRuns, []byte("|")), keep, cleanKeep)
		merged, merge, err := s.MergeRuns(nil, nil, runs, 1)
		if err != nil {
			t.Fatalf("%s merge-runs: %v", c.name, err)
		}
		check("merge-runs", merged, clean, merge, cleanMerge)
	}
}

// A shard panic beyond recovery semantics — no Inject, the sort
// machinery itself cancelled — propagates as a hard error and cancels
// sibling shards.
func TestSortContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	input := problems.GenMultisetYes(64, 16, rng).Encode()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := (shard.Sort{Shards: 2}).Run(ctx, input, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The one retry rule: any attempt error other than the run's
// cancellation burns one attempt, whatever its type. A plain error from
// a fleet's Attempt or a sort's Exec heals by retry exactly like a
// recovered panic or a dead worker.
func TestPlainAttemptErrorHeals(t *testing.T) {
	plain := errors.New("plain attempt failure")
	retry := shard.RetryPolicy{MaxAttempts: 2}

	const n = 24
	fleet := shard.Fleet{Plan: shard.Plan{Shards: 2, Trials: n}, Parallel: 1, Seed: 7}
	want, _, err := fleet.Run(nil, fingerless)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Retry = retry
	fleet.Attempt = func(ctx context.Context, sh, attempt int, eng trials.Engine, fn trials.Func) ([]trials.Result, error) {
		if sh == 0 && attempt == 1 {
			return nil, plain
		}
		rs, _, err := eng.Run(ctx, fn)
		return rs, err
	}
	got, sum, err := fleet.Run(nil, fingerless)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fleet rows moved under a healed plain error")
	}
	if sum.Retries != 1 || sum.Fallbacks != 0 {
		t.Fatalf("fleet census %+v: want 1 retry, 0 fallbacks", sum)
	}

	rng := rand.New(rand.NewSource(11))
	input := problems.GenMultisetYes(64, 16, rng).Encode()
	sorter := shard.Sort{Shards: 2, FanIn: 2, RunMemoryBits: 512}
	clean, cleanRep, err := sorter.Run(nil, input, 1)
	if err != nil {
		t.Fatal(err)
	}
	sorter.Retry = retry
	sorter.Exec = func(ctx context.Context, sh, attempt int, job shard.SortJob) ([]byte, core.Resources, error) {
		if sh == 0 && attempt == 1 {
			return nil, core.Resources{}, plain
		}
		return job.Execute()
	}
	out, rep, err := sorter.Run(nil, input, 1)
	if err != nil {
		t.Fatalf("sort: %v", err)
	}
	if !bytes.Equal(out, clean) || !reflect.DeepEqual(rep.Shards, cleanRep.Shards) {
		t.Fatal("sort output or successful-attempt census moved under a healed plain error")
	}
	if rep.Attempts != 3 || rep.Fallbacks != 0 || rep.Recovered != 0 {
		t.Fatalf("sort census (a=%d r=%d f=%d), want (a=3 r=0 f=0)", rep.Attempts, rep.Recovered, rep.Fallbacks)
	}
}

// The rule's one exception: an attempt that fails because the run's
// context was cancelled ends the stage at once with the context's
// error — no retry, no fallback — for fleets and sorts alike.
func TestCancelledAttemptEndsStage(t *testing.T) {
	retry := shard.RetryPolicy{MaxAttempts: 3}

	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: 8}, Parallel: 1, Seed: 7, Retry: retry,
		Attempt: func(ctx context.Context, _, _ int, _ trials.Engine, _ trials.Func) ([]trials.Result, error) {
			calls.Add(1)
			cancel()
			return nil, ctx.Err()
		},
	}.Run(ctx, fingerless)
	if !errors.Is(err, context.Canceled) || calls.Load() != 1 {
		t.Fatalf("fleet: err = %v after %d attempts, want context.Canceled after 1", err, calls.Load())
	}

	rng := rand.New(rand.NewSource(11))
	input := problems.GenMultisetYes(64, 16, rng).Encode()
	ctx, cancel = context.WithCancel(context.Background())
	calls.Store(0)
	_, _, err = shard.Sort{
		Shards: 1, Retry: retry,
		Exec: func(ctx context.Context, _, _ int, _ shard.SortJob) ([]byte, core.Resources, error) {
			calls.Add(1)
			cancel()
			return nil, core.Resources{}, ctx.Err()
		},
	}.Run(ctx, input, 1)
	if !errors.Is(err, context.Canceled) || calls.Load() != 1 {
		t.Fatalf("sort: err = %v after %d attempts, want context.Canceled after 1", err, calls.Load())
	}
}

// The typed shard panic error carries the shard index and unwraps to
// the panic value, and a panicking attempt degrades instead of failing.
func TestPanicErrorSurface(t *testing.T) {
	cause := errors.New("shard exploded")
	rng := rand.New(rand.NewSource(11))
	input := problems.GenMultisetYes(64, 16, rng).Encode()
	_, _, err := shard.Sort{
		Shards: 2,
		Inject: func(sh, attempt int) error {
			if sh == 1 {
				panic(cause)
			}
			return nil
		},
		// The fallback bypasses Inject, so even a budget of 1 recovers.
	}.Run(nil, input, 1)
	if err != nil {
		t.Fatalf("panic in inject hook must degrade, got %v", err)
	}

	var pe *shard.PanicError
	se := &shard.PanicError{Shard: 1, Value: cause, Stack: []byte("stack")}
	if !errors.As(error(se), &pe) || pe.Shard != 1 || !errors.Is(se, cause) {
		t.Fatalf("PanicError surface broken: %v", se)
	}
	if msg := se.Error(); !strings.Contains(msg, "shard 1") || strings.Contains(msg, "sort") {
		t.Errorf("PanicError text %q should name the shard, not the stage", msg)
	}
}

func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
