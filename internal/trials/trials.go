package trials

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// golden is the splitmix64 state increment (2^64 / φ, odd).
const golden = 0x9E3779B97F4A7C15

// mix is the splitmix64 output permutation.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Seed derives the RNG seed of trial i from the fleet's root seed with
// a splitmix64 mixing step. The derivation is stateless: trial seeds
// can be computed in any order by any worker, which is what makes the
// fleet schedule-independent. It is also used to derive independent
// sub-fleet roots from an experiment seed (distinct streams for the
// yes-fleet and the no-fleet, say).
func Seed(root int64, trial int) int64 {
	return int64(mix(uint64(root) + golden*(uint64(trial)+1)))
}

// splitmix is a rand.Source64 running the splitmix64 generator.
// Unlike the default Go source it costs O(1) to construct and seed
// (no 607-word warm-up), which matters when every trial of a large
// fleet gets a private source.
type splitmix struct{ state uint64 }

func (s *splitmix) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// RNG returns the deterministic random source of trial i under root:
// a splitmix64 stream whose start state is Seed(root, i).
func RNG(root int64, trial int) *rand.Rand {
	return rand.New(&splitmix{state: uint64(Seed(root, trial))})
}

// Result is the outcome of one trial: a verdict bit plus optional
// classification label, metric value and error text. The zero value
// is a clean rejecting trial.
type Result struct {
	Trial  int     `json:"trial"`
	Accept bool    `json:"accept"`
	Class  string  `json:"class,omitempty"` // optional label, e.g. "yes"/"no"
	Value  float64 `json:"value,omitempty"` // optional per-trial metric
	Err    string  `json:"err,omitempty"`   // non-empty if the trial failed
}

// Func is one Monte-Carlo trial. It must draw all randomness from rng
// (which is private to the trial) and must not touch shared mutable
// state; the engine may call it from any goroutine.
type Func func(trial int, rng *rand.Rand) Result

// Engine runs a fleet of Trials independent trials across Parallel
// workers, with per-trial randomness derived from Seed.
type Engine struct {
	Trials   int   // fleet size
	Parallel int   // worker goroutines; <= 0 means runtime.GOMAXPROCS(0)
	Seed     int64 // root seed; trial i uses Seed(Seed, i)

	// Offset shifts the engine's trial indices: the fleet runs the
	// global trials Offset, …, Offset+Trials−1, and both the seed
	// derivation and Result.Trial use the global index. Because a
	// trial's randomness is a pure function of (Seed, global index), an
	// engine running [Offset, Offset+Trials) produces exactly the slice
	// the full fleet would — this is how a sharded fleet
	// (internal/shard) gives each shard a disjoint contiguous range of
	// one larger fleet. 0 is the whole-fleet default.
	Offset int

	// OnResult, if non-nil, streams results strictly in trial order
	// (Offset, Offset+1, …) as the completed prefix grows — independent
	// of the order in which workers finish. It is invoked while the
	// engine holds an internal lock, so it must not call back into the
	// engine.
	OnResult func(Result)
}

// Runner is anything that can run a trial fleet: the Engine itself, or
// a sharded composition of engines (internal/shard.Fleet). Results
// come back in trial order with their Summary and the first trial
// error in trial order, exactly as Engine.Run documents. The context
// bounds the whole fleet: cancellation or a deadline stops workers
// promptly and Run returns the context's error with nil results.
type Runner interface {
	Run(ctx context.Context, fn Func) ([]Result, Summary, error)
}

// TrialPanicError is a panic recovered from a trial function: the
// worker converts the panic into this typed error instead of killing
// the process, records the trial index and the goroutine stack at the
// panic site, and the engine cancels its sibling workers. Because
// trial randomness is a pure function of (seed, index), a fleet that
// sees this error can re-execute the failed range with provably
// identical results — internal/shard.Fleet's retry path does exactly
// that.
type TrialPanicError struct {
	Trial int    // global index of the panicking trial
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *TrialPanicError) Error() string {
	return fmt.Sprintf("trials: trial %d panicked: %v", e.Trial, e.Value)
}

// Unwrap exposes a panic value that was itself an error (errors.As
// reaches an injected faults.Injected through here).
func (e *TrialPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// protect runs one trial, converting a panic into a *TrialPanicError.
func protect(fn Func, g int, rng *rand.Rand) (r Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &TrialPanicError{Trial: g, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(g, rng), nil
}

// Launcher constructs the Runner for a fleet of n trials rooted at
// seed; onResult, if non-nil, must receive the rows strictly in trial
// order. Fleet entry points (error estimation, Las Vegas repetition,
// adversary probing) take a Launcher so the caller chooses the
// execution shape — a single worker pool (Pool) or a sharded fleet
// (internal/shard.LaunchRetry) — without the results changing by a byte.
type Launcher func(n int, seed int64, onResult func(Result)) Runner

// Pool returns the single-machine Launcher: each fleet is one Engine
// with the given worker count (<= 0 means runtime.GOMAXPROCS(0)).
func Pool(parallel int) Launcher {
	return func(n int, seed int64, onResult func(Result)) Runner {
		return Engine{Trials: n, Parallel: parallel, Seed: seed, OnResult: onResult}
	}
}

var _ Runner = Engine{}

// Run executes the fleet and returns the per-trial results in trial
// order together with their Summary. The returned error is the first
// trial error in trial order (all trials still run to completion);
// engine misuse aside, a nil error means every trial was clean.
//
// Hard failures — a recovered trial panic (*TrialPanicError) or a
// cancelled context — are different: the first one stops the sibling
// workers from claiming further trials, every worker drains (no
// goroutine outlives Run), and Run returns nil results with that
// error. OnResult may already have streamed a prefix of the range by
// then; because rows are pure functions of (Seed, index), a caller
// that re-runs the range re-emits exactly the same prefix, which is
// how the sharded fleet's retry keeps the merged stream intact.
func (e Engine) Run(ctx context.Context, fn Func) ([]Result, Summary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := e.Trials
	if n <= 0 {
		return nil, Summary{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, Summary{}, err
	}
	workers := e.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]Result, n)
	var (
		next    int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		hardErr error
		done    = make([]bool, n)
		emitted int
	)
	// fail stops the siblings before it queues on mu, which every
	// sibling takes once per trial.
	fail := func(err error) {
		stop.Store(true)
		mu.Lock()
		if hardErr == nil {
			hardErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				g := e.Offset + i
				r, err := protect(fn, g, RNG(e.Seed, g))
				if err != nil {
					fail(err)
					return
				}
				r.Trial = g
				results[i] = r
				mu.Lock()
				done[i] = true
				for emitted < n && done[emitted] {
					if e.OnResult != nil {
						e.OnResult(results[emitted])
					}
					emitted++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if hardErr != nil {
		return nil, Summary{}, hardErr
	}
	sum := Summarize(results)
	return results, sum, FirstErr(results)
}

// FirstErr returns the first trial error in trial order (wrapped with
// its trial index), or nil if every result is clean. Sharded fleets
// use it to reconstruct the Engine.Run error contract after merging
// per-shard result ranges.
func FirstErr(rs []Result) error {
	for _, r := range rs {
		if r.Err != "" {
			return fmt.Errorf("trials: trial %d: %s", r.Trial, r.Err)
		}
	}
	return nil
}

// Count is the accept tally of one class of trials.
type Count struct {
	Trials  int `json:"trials"`
	Accepts int `json:"accepts"`
}

// Summary aggregates a fleet's results. The recovery census fields
// are filled by fault-tolerant runners (internal/shard.Fleet), not by
// Summarize: they record execution provenance — how hard the fleet
// had to work to produce the rows — and are all zero on a fault-free
// run, so encodings stay byte-identical when nothing went wrong.
type Summary struct {
	Trials  int              `json:"trials"`
	Accepts int              `json:"accepts"`
	Errors  int              `json:"errors,omitempty"`
	ByClass map[string]Count `json:"by_class,omitempty"` // only when classes were labeled

	Retries   int `json:"retries,omitempty"`   // shard ranges re-executed after a hard failure
	Fallbacks int `json:"fallbacks,omitempty"` // shards that exhausted retries and ran degraded
	Recovered int `json:"recovered,omitempty"` // worker panics recovered across all attempts
}

// Summarize tallies a result slice.
func Summarize(rs []Result) Summary {
	s := Summary{Trials: len(rs)}
	for _, r := range rs {
		if r.Err != "" {
			s.Errors++
			continue
		}
		if r.Accept {
			s.Accepts++
		}
		if r.Class != "" {
			if s.ByClass == nil {
				s.ByClass = make(map[string]Count)
			}
			c := s.ByClass[r.Class]
			c.Trials++
			if r.Accept {
				c.Accepts++
			}
			s.ByClass[r.Class] = c
		}
	}
	return s
}

// AcceptRate is the empirical acceptance probability of the fleet.
func (s Summary) AcceptRate() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.Accepts) / float64(s.Trials)
}

// AcceptCI returns the Wilson score interval for the acceptance
// probability at confidence parameter z (1.96 for 95%).
func (s Summary) AcceptCI(z float64) (lo, hi float64) {
	return Wilson(s.Accepts, s.Trials, z)
}

// Wilson returns the Wilson score confidence interval for a Bernoulli
// proportion after observing successes out of trials, at normal
// quantile z (z = 1.96 gives the standard 95% interval). Unlike the
// Wald interval it behaves sensibly at 0 and trials successes, which
// is exactly the regime of one-sided-error algorithms. trials == 0
// yields the vacuous interval [0, 1].
func Wilson(successes, trials int, z float64) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	den := 1 + z2/n
	center := (p + z2/(2*n)) / den
	half := (z / den) * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
