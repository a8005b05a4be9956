package faults_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"extmem/internal/faults"
	"extmem/internal/shard"
	"extmem/internal/trials"
)

// FuzzFaultPlanSchedule drives random recoverable fault plans through
// a sharded trial fleet and asserts the tentpole invariant: a plan
// whose every strike is recoverable (flaky panics under a sufficient
// retry budget, or pure delays) reproduces the fault-free rows and
// tallies bit for bit, at any shard and worker count the fuzzer
// picks. Every retry of a flaky shard consumes at least one of its
// sites' remaining strikes, so a budget of struck-sites + 2 provably
// never exhausts — any output movement is a real recovery-layer bug,
// not an under-budgeted plan.
func FuzzFaultPlanSchedule(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(2), uint8(2), false, uint8(0))
	f.Add(int64(5), uint16(900), uint8(4), uint8(8), true, uint8(3))
	f.Add(int64(-7), uint16(0), uint8(1), uint8(1), false, uint8(200))
	f.Fuzz(func(t *testing.T, planSeed int64, rateMil uint16, shards, parallel uint8, delay bool, siteByte uint8) {
		const n = 48
		nShards := 1 + int(shards)%6
		nWorkers := 1 + int(parallel)%8

		plan := faults.Plan{
			Seed:  planSeed,
			Mode:  faults.Panic,
			Rate:  float64(rateMil%1000) / 1000 * 0.3, // keep schedules sparse enough to run fast
			Sites: []int{int(siteByte) % n},
			Flaky: 1,
		}
		if delay {
			plan.Mode = faults.Delay
			plan.Delay = time.Microsecond
			plan.Flaky = 0
		}

		fn := func(i int, rng *rand.Rand) trials.Result {
			return trials.Result{Trial: i, Accept: rng.Intn(2) == 0, Value: float64(rng.Intn(1 << 20))}
		}
		want, wantSum, err := trials.Engine{Trials: n, Parallel: 1, Seed: 11}.Run(nil, fn)
		if err != nil {
			t.Fatal(err)
		}

		budget := shard.RetryPolicy{MaxAttempts: len(plan.StruckSites(n)) + 2}
		launch := plan.Trials(shard.LaunchRetry(nShards, nWorkers, budget, nil))
		got, sum, err := launch(n, 11, nil).Run(nil, fn)
		if err != nil {
			t.Fatalf("recoverable plan %+v surfaced: %v", plan, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rows moved under recoverable chaos %+v at %d shards × %d workers", plan, nShards, nWorkers)
		}
		if sum.Trials != wantSum.Trials || sum.Accepts != wantSum.Accepts || sum.Errors != 0 {
			t.Fatalf("tallies moved: %+v vs %+v", sum, wantSum)
		}
		if sum.Fallbacks != 0 {
			t.Fatalf("sufficient budget still fell back: %+v", sum)
		}
		if plan.Mode == faults.Panic && sum.Recovered == 0 {
			t.Fatalf("pinned site never struck: %+v", sum)
		}
	})
}
