package algorithms

import (
	"context"

	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/trials"
)

// This file hosts the Monte-Carlo fleet entry points of the
// randomized algorithms: error-rate estimation for the Theorem 8(a)
// fingerprint and independent-repetition amplification. All of them
// run on the trials engine, so per-trial randomness is derived from
// the root seed alone and results are identical at any worker count.

// FingerprintErrorEstimate is the measured error profile of the
// Theorem 8(a) decider over two independent trial fleets (one of
// yes-instances, one of no-instances).
type FingerprintErrorEstimate struct {
	M, N   int // instance shape: values per half, bits per value
	Trials int // fleet size per side

	YesErrors    int // rejected yes-instances (completeness violations; must be 0)
	FalseAccepts int // accepted no-instances (the one-sided error)

	// Wilson 95% confidence interval on the false-accept probability.
	FalseAcceptLo, FalseAcceptHi float64

	// Resource profile of one representative run (the decider is
	// resource-deterministic: always 2 scans, O(log N) bits).
	Scans   int
	MemBits int64
	Size    int // encoded instance size N
}

// EstimateFingerprintErrors runs 2·nTrials independent fingerprint
// trials (nTrials yes-instances, nTrials no-instances of shape m×n)
// on fleets built by launch — a worker pool (trials.Pool) or a sharded
// fleet (internal/shard.LaunchRetry); nil means a default pool — and
// aggregates the Theorem 8(a) error profile. Each trial generates its
// instance and draws its machine coins from a private rng derived from
// seed and the trial index, so the estimate is reproducible at any
// parallelism and shard count. ctx bounds both fleets (nil means no
// bound).
func EstimateFingerprintErrors(ctx context.Context, m, n, nTrials int, launch trials.Launcher, seed int64) (FingerprintErrorEstimate, error) {
	if launch == nil {
		launch = trials.Pool(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	est := FingerprintErrorEstimate{M: m, N: n, Trials: nTrials}
	fleet := func(root int64, yes bool) (trials.Summary, error) {
		// The trial body and its wire form come from the same
		// constructor: an execution shape that ships the fleet to a
		// worker process rebuilds exactly this function.
		w, fn := FingerprintGenWorkload(m, n, yes)
		_, sum, err := launch(nTrials, root, nil).Run(trials.WithWorkload(ctx, w), fn)
		return sum, err
	}
	yesSum, err := fleet(trials.Seed(seed, 0), true)
	if err != nil {
		return est, err
	}
	noSum, err := fleet(trials.Seed(seed, 1), false)
	if err != nil {
		return est, err
	}
	est.YesErrors = yesSum.Trials - yesSum.Accepts
	est.FalseAccepts = noSum.Accepts
	est.FalseAcceptLo, est.FalseAcceptHi = noSum.AcceptCI(1.96)

	// One representative run for the (deterministic) resource profile.
	rng := trials.RNG(seed, 2)
	in := problems.GenMultisetYes(m, n, rng)
	mach := core.NewMachine(1, rng.Int63())
	defer mach.Close()
	mach.SetInput(in.Encode())
	if _, _, err := FingerprintMultisetEquality(mach); err != nil {
		return est, err
	}
	res := mach.Resources()
	est.Scans, est.MemBits, est.Size = res.Scans(), res.PeakMemoryBits, in.Size()
	return est, nil
}

// FingerprintRepeatedFleet is the parallel, schedule-independent form
// of FingerprintRepeated: s independent repetitions of the Theorem
// 8(a) decider on the same encoded input, each on its own machine
// whose coins derive from (seed, repetition index) — unlike
// FingerprintRepeated, whose repetitions draw sequentially from one
// machine's rng and therefore cannot be parallelized. The fleet runs
// on launch (nil means a default worker pool). The verdict is Reject
// iff any repetition rejects (perfect completeness is preserved; the
// false-accept probability decays exponentially in s). ctx bounds the
// fleet (nil means no bound).
func FingerprintRepeatedFleet(ctx context.Context, input []byte, s int, launch trials.Launcher, seed int64) (core.Verdict, trials.Summary, error) {
	if launch == nil {
		launch = trials.Pool(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w, fn := FingerprintInputWorkload(input)
	_, sum, err := launch(s, seed, nil).Run(trials.WithWorkload(ctx, w), fn)
	if err != nil {
		return core.Reject, sum, err
	}
	if sum.Accepts == sum.Trials {
		return core.Accept, sum, nil
	}
	return core.Reject, sum, nil
}
