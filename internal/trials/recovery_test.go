package trials

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A panicking trial surfaces as a typed *TrialPanicError carrying the
// trial index and a stack, never as a crashed test binary — on both
// the sequential and the parallel path.
func TestEngineRecoversPanic(t *testing.T) {
	boom := func(i int, _ *rand.Rand) Result {
		if i == 3 {
			panic("boom at three")
		}
		return Result{Trial: i}
	}
	for _, parallel := range []int{1, 4} {
		rs, sum, err := Engine{Trials: 8, Parallel: parallel, Seed: 1}.Run(nil, boom)
		if rs != nil || sum.Trials != 0 || sum.Recovered != 0 {
			t.Fatalf("parallel=%d: hard failure must void results, got %v / %+v", parallel, rs, sum)
		}
		var pe *TrialPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallel=%d: err = %v, want *TrialPanicError", parallel, err)
		}
		if pe.Trial != 3 || pe.Value != "boom at three" {
			t.Fatalf("parallel=%d: recovered %+v, want trial 3 / boom", parallel, pe)
		}
		if !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("parallel=%d: no stack captured", parallel)
		}
	}
}

// A panic value that is itself an error stays reachable through
// errors.Unwrap, so fault injectors can type-match what they threw.
func TestTrialPanicErrorUnwrap(t *testing.T) {
	cause := errors.New("the cause")
	_, _, err := Engine{Trials: 2, Parallel: 1}.Run(nil, func(i int, _ *rand.Rand) Result {
		panic(cause)
	})
	if !errors.Is(err, cause) {
		t.Fatalf("panic cause not reachable via Unwrap: %v", err)
	}
}

// A cancelled context is a hard failure: no results, the context's
// error, on both paths — and cancellation mid-run stops the fleet
// long before the trial budget.
func TestEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallel := range []int{1, 4} {
		rs, _, err := Engine{Trials: 100, Parallel: parallel}.Run(ctx, func(i int, _ *rand.Rand) Result {
			return Result{Trial: i}
		})
		if rs != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%d: got (%v, %v), want canceled and nil rows", parallel, rs, err)
		}
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	executed := 0
	_, _, err := Engine{Trials: 1 << 20, Parallel: 1}.Run(ctx2, func(i int, _ *rand.Rand) Result {
		executed++
		if i == 10 {
			cancel2()
		}
		return Result{Trial: i}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v", err)
	}
	if executed > 100 {
		t.Fatalf("cancellation ignored: %d trials executed", executed)
	}
}

// A panic in one worker stops its siblings: the fleet abandons the
// remaining trial budget instead of grinding through it. Each sibling
// trial takes a fixed 100 µs, so a descheduled panicking worker still
// stops them long before they claim 2^16 trials, while a stop that
// never comes claims all 2^17 within a few seconds.
func TestEnginePanicStopsSiblings(t *testing.T) {
	var claimed atomic.Int64
	_, _, err := Engine{Trials: 1 << 17, Parallel: 4}.Run(nil, func(i int, _ *rand.Rand) Result {
		claimed.Add(1)
		if i == 0 {
			panic("first trial dies")
		}
		// Spin rather than sleep: a sleep this short overshoots by up
		// to a millisecond, which would stretch a failing run to a minute.
		for start := time.Now(); time.Since(start) < 100*time.Microsecond; {
		}
		return Result{Trial: i}
	})
	var pe *TrialPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *TrialPanicError", err)
	}
	if n := claimed.Load(); n > 1<<16 {
		t.Fatalf("siblings kept running: %d trials claimed after a panic", n)
	}
}

// Hard failures leave no goroutines behind: the worker pool drains
// before Run returns, every time.
func TestEngineNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for k := 0; k < 20; k++ {
		Engine{Trials: 64, Parallel: 8, Seed: int64(k)}.Run(nil, func(i int, _ *rand.Rand) Result {
			if i%7 == 0 {
				panic("recurring panic")
			}
			return Result{Trial: i}
		})
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines asserts the goroutine count settles back to (at
// most) the baseline plus slack for runtime helpers.
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
