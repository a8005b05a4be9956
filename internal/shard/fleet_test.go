package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"extmem/internal/trials"
)

// workload is a trial function with per-trial random content in every
// Result field, so equality checks compare real randomness, not
// constants.
func workload(i int, rng *rand.Rand) trials.Result {
	v := rng.Float64()
	r := trials.Result{Accept: v < 0.5, Value: v}
	if i%3 == 0 {
		r.Class = "third"
	}
	return r
}

func TestSplitProperties(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 16, 100, 101} {
		for _, shards := range []int{-1, 0, 1, 2, 3, 7, 16, 25} {
			rs := Split(n, shards)
			wantShards := shards
			if wantShards < 1 {
				wantShards = 1
			}
			if len(rs) != wantShards {
				t.Fatalf("Split(%d, %d): %d ranges", n, shards, len(rs))
			}
			lo := 0
			for i, r := range rs {
				if r.Shard != i {
					t.Fatalf("Split(%d, %d): range %d labeled shard %d", n, shards, i, r.Shard)
				}
				if r.Lo != lo || r.Hi < r.Lo {
					t.Fatalf("Split(%d, %d): range %d = %+v not contiguous from %d", n, shards, i, r, lo)
				}
				lo = r.Hi
			}
			if lo != n {
				t.Fatalf("Split(%d, %d): ranges cover [0, %d), want [0, %d)", n, shards, lo, n)
			}
			// Near-equal: sizes differ by at most one, longer first.
			for i := 1; i < len(rs); i++ {
				a, b := rs[i-1].Len(), rs[i].Len()
				if a < b || a-b > 1 {
					t.Fatalf("Split(%d, %d): sizes %d then %d", n, shards, a, b)
				}
			}
		}
	}
}

// The tentpole invariant: a sharded fleet is indistinguishable from a
// single engine run at every (shards, parallel) combination — results,
// summary and error all equal.
func TestFleetMatchesEngine(t *testing.T) {
	const n = 31
	const seed = 77
	want, wantSum, wantErr := trials.Engine{Trials: n, Parallel: 1, Seed: seed}.Run(nil, workload)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	for _, shards := range []int{1, 2, 3, 5, 31, 40} {
		for _, parallel := range []int{1, 4} {
			f := Fleet{Plan: Plan{Shards: shards, Trials: n}, Parallel: parallel, Seed: seed}
			got, gotSum, gotErr := f.Run(nil, workload)
			if gotErr != nil {
				t.Fatalf("shards=%d parallel=%d: %v", shards, parallel, gotErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d parallel=%d: results differ from engine", shards, parallel)
			}
			if !reflect.DeepEqual(gotSum, wantSum) {
				t.Fatalf("shards=%d parallel=%d: summary %+v != %+v", shards, parallel, gotSum, wantSum)
			}
		}
	}
}

// The in-order merge stream must deliver exactly the result sequence,
// in global trial order, no matter how shards interleave.
func TestFleetStreamOrder(t *testing.T) {
	const n = 57
	for _, shards := range []int{2, 4} {
		var streamed []trials.Result
		f := Fleet{
			Plan:     Plan{Shards: shards, Trials: n},
			Parallel: 4,
			Seed:     5,
			OnResult: func(r trials.Result) { streamed = append(streamed, r) },
		}
		got, _, err := f.Run(nil, workload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, got) {
			t.Fatalf("shards=%d: streamed rows differ from returned results", shards)
		}
		for i, r := range streamed {
			if r.Trial != i {
				t.Fatalf("shards=%d: row %d carries trial %d", shards, i, r.Trial)
			}
		}
	}
}

// Trial errors must surface identically to the engine: the first
// erroring trial in global order, even if it lives in a later shard's
// range than another error completed earlier.
func TestFleetErrorPropagation(t *testing.T) {
	failAt := func(bad ...int) trials.Func {
		set := map[int]bool{}
		for _, b := range bad {
			set[b] = true
		}
		return func(i int, rng *rand.Rand) trials.Result {
			if set[i] {
				return trials.Result{Err: fmt.Sprintf("boom %d", i)}
			}
			return workload(i, rng)
		}
	}
	fn := failAt(19, 6)
	_, _, wantErr := trials.Engine{Trials: 24, Parallel: 1, Seed: 9}.Run(nil, fn)
	if wantErr == nil {
		t.Fatal("engine run did not error")
	}
	for _, shards := range []int{1, 3, 8} {
		_, _, gotErr := Fleet{Plan: Plan{Shards: shards, Trials: 24}, Parallel: 2, Seed: 9}.Run(nil, fn)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("shards=%d: error %v, want %v", shards, gotErr, wantErr)
		}
	}
}

func TestFleetEmpty(t *testing.T) {
	rs, sum, err := Fleet{Plan: Plan{Shards: 4}}.Run(nil, workload)
	if rs != nil || sum.Trials != 0 || err != nil {
		t.Fatalf("empty fleet: %v %+v %v", rs, sum, err)
	}
}

// LaunchRetry must hand the fleet entry points a Runner with the same
// byte-for-byte behavior as a plain worker pool.
func TestLaunchMatchesPool(t *testing.T) {
	var poolRows, fleetRows []trials.Result
	collect := func(dst *[]trials.Result) func(trials.Result) {
		return func(r trials.Result) { *dst = append(*dst, r) }
	}
	p, pSum, _ := trials.Pool(4)(20, 3, collect(&poolRows)).Run(nil, workload)
	s, sSum, _ := LaunchRetry(4, 2, RetryPolicy{}, nil)(20, 3, collect(&fleetRows)).Run(nil, workload)
	if !reflect.DeepEqual(p, s) || !reflect.DeepEqual(pSum, sSum) {
		t.Fatal("LaunchRetry runner differs from Pool runner")
	}
	if !reflect.DeepEqual(poolRows, fleetRows) {
		t.Fatal("streamed rows differ between Pool and LaunchRetry")
	}
}
