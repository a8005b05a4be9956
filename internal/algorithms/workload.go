package algorithms

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"

	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/trials"
)

// This file gives the Monte-Carlo fleet entry points a wire form:
// each trial closure that is a pure function of a few bytes of
// configuration gets a registered trials.Workload builder, so a shard
// worker process (internal/transport) can reconstruct the exact trial
// function from the job frame and produce byte-identical rows. The
// constructors return the workload and the function as a pair — the
// coordinator runs the returned Func in-process and annotates its
// context with the returned Workload, and the worker rebuilds the same
// Func from the same spec; there is exactly one trial body per
// workload, never two copies to drift apart.
//
// Fleets whose closures capture live state (the Las Vegas sort's
// per-repetition result slice, the lower-bound adversary's stream
// factories) have no wire form: they run without an annotation and the
// transport's shard attempt transparently falls back to the in-process
// engine.

// Workload names, also the registry keys.
const (
	// WorkloadFingerprintGen is the Theorem 8(a) error-estimation
	// trial: generate a fresh yes/no multiset instance of shape M×N
	// from the trial rng, run the fingerprint decider on it.
	WorkloadFingerprintGen = "fingerprint-gen"
	// WorkloadFingerprintInput is the independent-repetition trial: run
	// the fingerprint decider on one fixed encoded input with fresh
	// coins per repetition.
	WorkloadFingerprintInput = "fingerprint-input"
	// WorkloadFingerprintValue is the census variant of the generated
	// no-instance trial: the row additionally records the trial's
	// random reduction prime p1, so equality checks across execution
	// shapes compare genuinely random per-trial content (E18).
	WorkloadFingerprintValue = "fingerprint-value"
)

// fingerprintGenSpec is the wire spec of WorkloadFingerprintGen.
type fingerprintGenSpec struct {
	M, N int
	Yes  bool
}

// fingerprintValueSpec is the wire spec of WorkloadFingerprintValue.
type fingerprintValueSpec struct {
	M, N int
}

func gobSpec(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		// The specs are tiny concrete structs; failure to encode one is
		// a programming error, not a runtime condition.
		panic(fmt.Sprintf("algorithms: encoding workload spec: %v", err))
	}
	return buf.Bytes()
}

func init() {
	trials.RegisterWorkload(WorkloadFingerprintGen, func(spec []byte) (trials.Func, error) {
		var s fingerprintGenSpec
		if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&s); err != nil {
			return nil, fmt.Errorf("algorithms: %s spec: %w", WorkloadFingerprintGen, err)
		}
		_, fn := FingerprintGenWorkload(s.M, s.N, s.Yes)
		return fn, nil
	})
	trials.RegisterWorkload(WorkloadFingerprintInput, func(spec []byte) (trials.Func, error) {
		_, fn := FingerprintInputWorkload(spec)
		return fn, nil
	})
	trials.RegisterWorkload(WorkloadFingerprintValue, func(spec []byte) (trials.Func, error) {
		var s fingerprintValueSpec
		if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&s); err != nil {
			return nil, fmt.Errorf("algorithms: %s spec: %w", WorkloadFingerprintValue, err)
		}
		_, fn := FingerprintValueWorkload(s.M, s.N)
		return fn, nil
	})
}

// FingerprintGenWorkload returns the generated-instance fingerprint
// trial of EstimateFingerprintErrors — one fresh m×n yes/no instance
// and one decider machine per trial, all randomness from the trial rng
// — together with its wire form.
func FingerprintGenWorkload(m, n int, yes bool) (trials.Workload, trials.Func) {
	w := trials.Workload{Name: WorkloadFingerprintGen, Spec: gobSpec(fingerprintGenSpec{M: m, N: n, Yes: yes})}
	return w, func(_ int, rng *rand.Rand) trials.Result {
		var in problems.Instance
		if yes {
			in = problems.GenMultisetYes(m, n, rng)
		} else {
			in = problems.GenMultisetNo(m, n, rng)
		}
		mach := core.NewMachine(1, rng.Int63())
		defer mach.Close()
		mach.SetInput(in.Encode())
		v, _, err := FingerprintMultisetEquality(mach)
		if err != nil {
			return trials.Result{Err: err.Error()}
		}
		return trials.Result{Accept: v == core.Accept}
	}
}

// FingerprintInputWorkload returns the fixed-input fingerprint trial
// of FingerprintRepeatedFleet — the decider on one encoded input,
// fresh coins per repetition — together with its wire form (the spec
// is the input itself).
func FingerprintInputWorkload(input []byte) (trials.Workload, trials.Func) {
	w := trials.Workload{Name: WorkloadFingerprintInput, Spec: input}
	return w, func(_ int, rng *rand.Rand) trials.Result {
		m := core.NewMachine(1, rng.Int63())
		defer m.Close()
		m.SetInput(input)
		v, _, err := FingerprintMultisetEquality(m)
		if err != nil {
			return trials.Result{Err: err.Error()}
		}
		return trials.Result{Accept: v == core.Accept}
	}
}

// FingerprintValueWorkload returns the generated no-instance
// fingerprint trial that records the trial's random reduction prime p1
// in the row's Value — the E18 fleet body — together with its wire
// form.
func FingerprintValueWorkload(m, n int) (trials.Workload, trials.Func) {
	w := trials.Workload{Name: WorkloadFingerprintValue, Spec: gobSpec(fingerprintValueSpec{M: m, N: n})}
	return w, func(_ int, rng *rand.Rand) trials.Result {
		in := problems.GenMultisetNo(m, n, rng)
		mach := core.NewMachine(1, rng.Int63())
		defer mach.Close()
		mach.SetInput(in.Encode())
		v, params, err := FingerprintMultisetEquality(mach)
		if err != nil {
			return trials.Result{Err: err.Error()}
		}
		return trials.Result{Accept: v == core.Accept, Value: float64(params.P1)}
	}
}
