package faults_test

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"extmem/internal/faults"
	"extmem/internal/shard"
	"extmem/internal/trials"
)

// The strike schedule is the union of the selectors and a pure
// function of the plan: explicit sites always strike, rate 0 adds
// nothing, rate 1 strikes everything, and a partial rate adds its
// hashed sites to the explicit ones.
func TestPlanTargetsUnion(t *testing.T) {
	hashed := faults.Plan{Seed: 3, Mode: faults.Error, Rate: 0.3}.StruckSites(12)
	if len(hashed) == 0 || len(hashed) == 12 {
		t.Fatalf("rate 0.3 struck %v, want some but not all of 12", hashed)
	}
	site := 0
	for slices.Contains(hashed, site) {
		site++
	}
	got := faults.Plan{Seed: 3, Mode: faults.Error, Rate: 0.3, Sites: []int{site}}.StruckSites(12)
	want := slices.Sorted(slices.Values(append([]int{site}, hashed...)))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StruckSites = %v, want Sites ∪ hashed = %v", got, want)
	}
	if got := (faults.Plan{Mode: faults.Error, Sites: []int{7}}).StruckSites(12); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("explicit site with rate 0 struck %v, want [7]", got)
	}

	if got := (faults.Plan{Mode: faults.Error, Rate: 1}).StruckSites(5); len(got) != 5 {
		t.Fatalf("rate 1 struck %v, want all 5", got)
	}
	if got := (faults.Plan{Mode: faults.Error, Sites: []int{2}}).StruckSites(5); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("explicit site struck %v, want [2]", got)
	}
	if got := (faults.Plan{}).StruckSites(5); got != nil {
		t.Fatalf("disabled plan struck %v, want none", got)
	}
}

// Rate-selected schedules are deterministic in the plan seed and
// (virtually always) move when it moves.
func TestPlanScheduleDeterministic(t *testing.T) {
	a := faults.Plan{Seed: 3, Mode: faults.Panic, Rate: 0.3}
	if !reflect.DeepEqual(a.StruckSites(256), a.StruckSites(256)) {
		t.Fatal("same plan produced two schedules")
	}
	b := faults.Plan{Seed: 4, Mode: faults.Panic, Rate: 0.3}
	if reflect.DeepEqual(a.StruckSites(256), b.StruckSites(256)) {
		t.Fatal("independent seeds produced the same 256-site schedule")
	}
	if n := len(a.StruckSites(10000)); n < 2400 || n > 3600 {
		t.Fatalf("rate 0.3 struck %d of 10000 sites", n)
	}
}

// A Flaky plan strikes only the first attempts at a site, then heals.
func TestInjectorFlakyHealing(t *testing.T) {
	inj := faults.Plan{Mode: faults.Error, Sites: []int{0}, Flaky: 2}.Injector()
	for attempt := 1; attempt <= 4; attempt++ {
		err := inj.Strike(0)
		if want := attempt <= 2; (err != nil) != want {
			t.Fatalf("attempt %d: err = %v, want error: %v", attempt, err, want)
		}
	}
	if err := inj.Strike(1); err != nil {
		t.Fatalf("untargeted site struck: %v", err)
	}
}

// The injected fault is typed and self-describing.
func TestInjectedError(t *testing.T) {
	inj := faults.Plan{Mode: faults.Error, Sites: []int{3}}.Injector()
	err := inj.Strike(3)
	var fe *faults.Injected
	if !errors.As(err, &fe) || fe.Site != 3 || fe.Attempt != 1 || fe.Mode != faults.Error {
		t.Fatalf("Strike = %v (%+v)", err, fe)
	}
	if fe.Error() != "faults: injected error at site 3 (attempt 1)" {
		t.Fatalf("error text %q", fe.Error())
	}
	for m, s := range map[faults.Mode]string{
		faults.None: "none", faults.Panic: "panic", faults.Error: "error", faults.Delay: "delay",
	} {
		if m.String() != s {
			t.Fatalf("Mode(%d).String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

// A panic-mode strike panics with the typed fault, and the engine's
// recovery layer hands it back through TrialPanicError.Unwrap.
func TestPanicModeReachesRecovery(t *testing.T) {
	launch := faults.Plan{Mode: faults.Panic, Sites: []int{1}}.Trials(nil)
	_, _, err := launch(4, 1, nil).Run(nil, func(i int, _ *rand.Rand) trials.Result {
		return trials.Result{Trial: i}
	})
	var fe *faults.Injected
	if !errors.As(err, &fe) || fe.Site != 1 {
		t.Fatalf("err = %v, want injected panic at site 1 through the recovery chain", err)
	}
}

// Error-mode plans record deterministic error rows at exactly the
// struck sites — the same rows at every shard count.
func TestTrialsErrorRowsShardInvariant(t *testing.T) {
	plan := faults.Plan{Seed: 9, Mode: faults.Error, Rate: 0.2}
	struck := plan.StruckSites(30)
	if len(struck) == 0 {
		t.Fatal("rate 0.2 struck nothing at this seed; pick another seed")
	}
	var ref []trials.Result
	for _, shards := range []int{1, 2, 5} {
		launch := plan.Trials(shard.LaunchRetry(shards, 2, shard.RetryPolicy{}, nil))
		rs, sum, _ := launch(30, 1, nil).Run(nil, func(i int, _ *rand.Rand) trials.Result {
			return trials.Result{Trial: i, Accept: true}
		})
		if sum.Errors != len(struck) {
			t.Fatalf("shards=%d: %d error rows, want %d", shards, sum.Errors, len(struck))
		}
		for _, s := range struck {
			if rs[s].Err == "" || rs[s].Accept {
				t.Fatalf("shards=%d: struck site %d not an error row: %+v", shards, s, rs[s])
			}
		}
		if ref == nil {
			ref = rs
		} else if !reflect.DeepEqual(rs, ref) {
			t.Fatalf("error rows moved across shard counts")
		}
	}
}

// Delay mode stalls and proceeds: no errors, no row movement.
func TestDelayModeIsByteInvisible(t *testing.T) {
	launch := faults.Plan{Mode: faults.Delay, Rate: 1, Delay: time.Microsecond}.Trials(nil)
	rs, sum, err := launch(8, 1, nil).Run(nil, func(i int, _ *rand.Rand) trials.Result {
		return trials.Result{Trial: i, Accept: true}
	})
	if err != nil || sum.Errors != 0 || len(rs) != 8 {
		t.Fatalf("delay plan surfaced: rows=%d errs=%d err=%v", len(rs), sum.Errors, err)
	}
}

// The shard-granularity hook targets shard indices and honors the
// Flaky attempt budget; a disabled plan yields the nil (no-chaos)
// hook.
func TestShardInject(t *testing.T) {
	hook := faults.Plan{Mode: faults.Error, Sites: []int{2}, Flaky: 1}.ShardInject()
	if err := hook(1, 1); err != nil {
		t.Fatalf("untargeted shard struck: %v", err)
	}
	if err := hook(2, 1); err == nil {
		t.Fatal("targeted shard not struck on attempt 1")
	}
	if err := hook(2, 2); err != nil {
		t.Fatalf("flaky shard struck past its budget: %v", err)
	}
	if (faults.Plan{}).ShardInject() != nil {
		t.Fatal("disabled plan must return the nil hook")
	}
}
