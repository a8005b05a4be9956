package algorithms

import (
	"context"
	"math/rand"

	"extmem/internal/core"
	"extmem/internal/trials"
)

// SortResult reports a Las Vegas sorting attempt (Corollary 10).
type SortResult struct {
	Verdict   core.Verdict // Accept if the sorted output was produced, DontKnow otherwise
	Resources core.Resources
}

// SortLasVegas runs the external merge sort as a Las Vegas function
// computation under a total scan budget: if the sort completes within
// the budget the sorted sequence is on tape dst and the verdict is
// Accept; otherwise the machine answers "I don't know".
//
// The sort is the k-way engine at fan-in 2 over auxA/auxB with the
// default run-formation memory; SortLasVegasAuto raises the fan-in to
// everything the machine's tape count allows.
//
// Corollary 10 states that with o(log N) scans and O(N^{1/4}/log N)
// internal memory, every Las Vegas sorter must answer "I don't know"
// (with probability > 1/2) on some inputs; experiment E5 sweeps the
// budget to locate the scan count at which this implementation stops
// succeeding, which tracks Θ(log N).
func SortLasVegas(m *core.Machine, dst, auxA, auxB, scanBudget int) (SortResult, error) {
	s := Sorter{FanIn: 2, RunMemoryBits: DefaultRunMemoryBits}
	return lasVegasAttempt(m, s, dst, []int{auxA, auxB}, scanBudget)
}

// SortLasVegasAuto is SortLasVegas with the fan-in derived from the
// machine's tape count: every tape except the input and dst becomes a
// merge lane (fan-in t−2), realizing the model's r-vs-t trade — more
// tapes, fewer reversals under the same budget.
func SortLasVegasAuto(m *core.Machine, dst, scanBudget int, runMemoryBits int64) (SortResult, error) {
	work := WorkTapes(m, dst)
	s := Sorter{FanIn: len(work), RunMemoryBits: runMemoryBits}
	return lasVegasAttempt(m, s, dst, work, scanBudget)
}

func lasVegasAttempt(m *core.Machine, s Sorter, dst int, work []int, scanBudget int) (SortResult, error) {
	if err := s.SortToTape(m, dst, work); err != nil {
		return SortResult{Verdict: core.DontKnow, Resources: m.Resources()}, err
	}
	res := m.Resources()
	if res.Scans() > scanBudget {
		// The budget-limited machine could not have finished; it
		// answers "I don't know" and produces no output.
		return SortResult{Verdict: core.DontKnow, Resources: res}, nil
	}
	return SortResult{Verdict: core.Accept, Resources: res}, nil
}

// SortLasVegasRepeated is Las Vegas amplification on the trials
// engine: it runs attempts independent budgeted sorting attempts on
// the same encoded input, each on a fresh machine with tapes external
// tapes whose coins derive from (seed, attempt index), and returns
// the first accepting attempt in attempt order (schedule-independent)
// together with the fleet summary — the accept count over attempts is
// the empirical success probability the Corollary 10 repetition
// argument amplifies. The fleet runs on launch — a worker pool
// (trials.Pool) or a sharded fleet (internal/shard.LaunchRetry); nil means
// a default pool. Every attempt sorts onto tape dst with fan-in
// tapes−2 (SortLasVegasAuto). If every attempt answers "I don't
// know", the first attempt's DontKnow result is returned. ctx bounds
// the fleet (nil means no bound).
func SortLasVegasRepeated(ctx context.Context, input []byte, tapes, dst, scanBudget, attempts int, launch trials.Launcher, seed int64) (SortResult, trials.Summary, error) {
	if attempts <= 0 {
		return SortResult{Verdict: core.DontKnow}, trials.Summary{}, nil
	}
	if launch == nil {
		launch = trials.Pool(0)
	}
	results := make([]SortResult, attempts)
	_, sum, err := launch(attempts, seed, nil).Run(ctx,
		func(i int, rng *rand.Rand) trials.Result {
			m := core.NewMachine(tapes, rng.Int63())
			defer m.Close()
			m.SetInput(input)
			res, err := SortLasVegasAuto(m, dst, scanBudget, DefaultRunMemoryBits)
			results[i] = res
			if err != nil {
				return trials.Result{Err: err.Error()}
			}
			return trials.Result{Accept: res.Verdict == core.Accept}
		})
	if err != nil {
		return SortResult{Verdict: core.DontKnow}, sum, err
	}
	for _, r := range results {
		if r.Verdict == core.Accept {
			return r, sum, nil
		}
	}
	return results[0], sum, nil
}
