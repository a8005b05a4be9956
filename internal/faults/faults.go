package faults

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"extmem/internal/shard"
	"extmem/internal/trials"
)

// Mode is the kind of fault a plan injects at a struck site.
type Mode int

const (
	// None disables the plan; the zero Plan injects nothing.
	None Mode = iota
	// Panic panics with an *Injected at the struck site — the fault
	// the recovery layer converts to a typed error and retries.
	Panic
	// Error returns an *Injected from the struck site, modeling the
	// work itself failing: trial sites record a deterministic error
	// row, sort sites fail the attempt.
	Error
	// Delay sleeps Plan.Delay at the struck site and then proceeds —
	// the straggler fault; it never changes an output byte.
	Delay
)

func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Error:
		return "error"
	case Delay:
		return "delay"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Plan is a deterministic fault schedule. Whether a site is struck is
// a pure function of (Seed, site index) plus the explicit Sites, so
// the same plan strikes the same sites at every shard count, worker
// count and schedule. A site is targeted if it appears in Sites or its
// seed-derived hash falls under Rate. Sites are trial indices where
// the plan wraps a fleet (Trials) and shard indices where it hooks a
// sharded stage (ShardInject, TapeWrap).
type Plan struct {
	Seed int64 // keys the Rate hash; independent of the run's trial seed
	Mode Mode  // what happens at a struck site

	Rate  float64       // probability-like fraction of sites struck by hash, in [0, 1]
	Sites []int         // explicitly struck sites (trial indices / shard indices)
	Flaky int           // strike only the first Flaky attempts per site; 0 means every attempt
	Delay time.Duration // sleep duration for Mode Delay
}

// Enabled reports whether the plan can strike at all.
func (p Plan) Enabled() bool {
	return p.Mode != None && (p.Rate > 0 || len(p.Sites) > 0)
}

// rateHit is the seed-keyed selector: site strikes iff its splitmix64
// hash, mapped to [0, 1), falls under Rate.
func (p Plan) rateHit(site int) bool {
	if p.Rate >= 1 {
		return true
	}
	if p.Rate <= 0 {
		return false
	}
	h := uint64(trials.Seed(p.Seed, site))
	return float64(h>>11)/(1<<53) < p.Rate
}

// targets reports whether site is struck: it is in Sites or under the
// Rate hash.
func (p Plan) targets(site int) bool {
	return slices.Contains(p.Sites, site) || p.rateHit(site)
}

// StruckSites returns the trial sites of a fleet of n the plan
// targets, in index order — the strike schedule is a pure function of
// the plan, so tables and tests can print it without running anything.
func (p Plan) StruckSites(n int) []int {
	if !p.Enabled() {
		return nil
	}
	var out []int
	for i := 0; i < n; i++ {
		if p.targets(i) {
			out = append(out, i)
		}
	}
	return out
}

// fire executes the fault at a struck site on the given 1-based
// attempt, honoring the Flaky budget.
func (p Plan) fire(site, attempt int) error {
	if p.Flaky > 0 && attempt > p.Flaky {
		return nil
	}
	switch p.Mode {
	case Delay:
		time.Sleep(p.Delay)
		return nil
	case Error:
		return &Injected{Site: site, Attempt: attempt, Mode: Error}
	case Panic:
		panic(&Injected{Site: site, Attempt: attempt, Mode: Panic})
	}
	return nil
}

// Injected is the fault an enabled plan delivers: for Mode Error it is
// the returned error, for Mode Panic it is the panic value (which the
// recovery layer wraps in trials.TrialPanicError / shard.PanicError,
// whose Unwrap reaches back here).
type Injected struct {
	Site    int  // the struck site
	Attempt int  // 1-based attempt at that site
	Mode    Mode // Error or Panic
}

func (e *Injected) Error() string {
	return fmt.Sprintf("faults: injected %s at site %d (attempt %d)", e.Mode, e.Site, e.Attempt)
}

// Injector tracks per-site attempt counts for a plan, so Flaky plans
// strike the first attempts and then heal. It is safe for concurrent
// use.
type Injector struct {
	plan Plan

	mu   sync.Mutex
	hits map[int]int
}

// Injector returns a fresh attempt-tracking injector.
func (p Plan) Injector() *Injector {
	return &Injector{plan: p, hits: make(map[int]int)}
}

// Strike fires the plan's fault at site if it is targeted: Delay
// sleeps and returns nil, Error returns an *Injected, Panic panics
// with one. Untargeted sites (and targeted sites past their Flaky
// budget) cost one map lookup and return nil.
func (inj *Injector) Strike(site int) error {
	if !inj.plan.targets(site) {
		return nil
	}
	inj.mu.Lock()
	inj.hits[site]++
	attempt := inj.hits[site]
	inj.mu.Unlock()
	return inj.plan.fire(site, attempt)
}

// Trials wraps a trial launcher so every trial index becomes a fault
// site: a struck trial panics (Mode Panic — recovered and retried by
// the engine/fleet, output unchanged), records a deterministic error
// row (Mode Error), or stalls (Mode Delay) before the real trial
// function runs. nil inner means the default worker pool. A disabled
// plan returns inner unchanged, so the zero Plan is a no-op shape.
func (p Plan) Trials(inner trials.Launcher) trials.Launcher {
	if !p.Enabled() {
		return inner
	}
	if inner == nil {
		inner = trials.Pool(0)
	}
	return func(n int, seed int64, onResult func(trials.Result)) trials.Runner {
		return chaosRunner{inner: inner(n, seed, onResult), inj: p.Injector()}
	}
}

type chaosRunner struct {
	inner trials.Runner
	inj   *Injector
}

func (c chaosRunner) Run(ctx context.Context, fn trials.Func) ([]trials.Result, trials.Summary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Trial-level faults strike inside the wrapped function and count
	// attempts in this process's injector, so the fleet must execute
	// the wrapper — stripping the workload annotation pins every shard
	// attempt to the in-process engine instead of a worker process.
	// (Shard-granular sort chaos is unaffected: ShardInject strikes on
	// the coordinator before the attempt is dispatched anywhere.)
	ctx = trials.WithoutWorkload(ctx)
	return c.inner.Run(ctx, func(i int, rng *rand.Rand) trials.Result {
		if err := c.inj.Strike(i); err != nil {
			return trials.Result{Trial: i, Err: err.Error()}
		}
		return fn(i, rng)
	})
}

// ShardInject derives the shard.Sort chaos hook from the plan: fault
// sites are shard indices (Sites holds shard indices; Rate hashes the
// shard index), and the attempt number is the 1-based attempt the sort
// layer reports, so Flaky plans fail a shard's first attempts and let
// the retry succeed. A disabled plan returns nil — the no-chaos hook.
func (p Plan) ShardInject() shard.InjectFunc {
	if !p.Enabled() {
		return nil
	}
	return func(sh, attempt int) error {
		if !p.targets(sh) {
			return nil
		}
		return p.fire(sh, attempt)
	}
}
