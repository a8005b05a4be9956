package algorithms

import (
	"math/rand"
	"testing"

	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/trials"
)

func runFingerprint(t *testing.T, in problems.Instance, seed int64) (core.Verdict, FingerprintParams, core.Resources) {
	t.Helper()
	m := core.NewMachine(1, seed)
	m.SetInput(in.Encode())
	v, params, err := FingerprintMultisetEquality(m)
	if err != nil {
		t.Fatalf("fingerprint on %+v: %v", in, err)
	}
	return v, params, m.Resources()
}

// Perfect completeness: equal multisets are always accepted, whatever
// the coins.
func TestFingerprintCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		mSize := 1 + rng.Intn(32)
		n := 1 + rng.Intn(16)
		in := problems.GenMultisetYes(mSize, n, rng)
		v, _, _ := runFingerprint(t, in, rng.Int63())
		if v != core.Accept {
			t.Fatalf("equal multisets rejected (trial %d, m=%d n=%d): %+v", trial, mSize, n, in)
		}
	}
}

// Soundness: distinct multisets must be rejected with probability
// ≥ 1/2; empirically the rate is far better. We require ≥ 80% rejects
// over independent coins for a fixed hard instance.
func TestFingerprintSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	in := problems.GenMultisetNo(16, 12, rng)
	rejects := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		v, _, _ := runFingerprint(t, in, int64(1000+i))
		if v == core.Reject {
			rejects++
		}
	}
	if rejects < trials*8/10 {
		t.Fatalf("only %d/%d rejects on a no-instance", rejects, trials)
	}
}

// Adversarial no-instances that differ in exactly one element.
func TestFingerprintSoundnessMinimalDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	falseAccepts := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		mSize := 2 + rng.Intn(16)
		n := 4 + rng.Intn(12)
		in := problems.GenMultisetNo(mSize, n, rng)
		v, _, _ := runFingerprint(t, in, rng.Int63())
		if v == core.Accept {
			falseAccepts++
		}
	}
	// Theorem 8(a) guarantees ≤ 1/2; empirically it should be rare.
	if falseAccepts > trials/4 {
		t.Fatalf("%d/%d false accepts — soundness broken", falseAccepts, trials)
	}
}

// Theorem 8(a) resource bound: exactly 2 sequential scans (1 head
// reversal), one external tape, O(log N) internal memory.
func TestFingerprintResources(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, mSize := range []int{4, 32, 128} {
		in := problems.GenMultisetYes(mSize, 16, rng)
		_, _, res := runFingerprint(t, in, 9)
		if res.Scans() != 2 {
			t.Fatalf("m=%d: %d scans, want exactly 2", mSize, res.Scans())
		}
		if res.Tapes != 1 {
			t.Fatalf("m=%d: %d tapes, want 1", mSize, res.Tapes)
		}
		bound := core.Bound{Name: "co-RST(2, 40 log N, 1)", R: core.ConstR(2), S: core.LogS(40), T: 1}
		if err := bound.Admits(res, in.Size()); err != nil {
			t.Fatalf("m=%d: %v (resources %v)", mSize, err, res)
		}
	}
}

func TestFingerprintParamsInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	in := problems.GenMultisetYes(8, 8, rng)
	_, p, _ := runFingerprint(t, in, 3)
	if p.M != 8 || p.N != 8 {
		t.Fatalf("params m=%d n=%d", p.M, p.N)
	}
	if p.P1 > p.K || p.P1 < 2 {
		t.Fatalf("p1 = %d out of range [2, %d]", p.P1, p.K)
	}
	if p.P2 <= 3*p.K || p.P2 > 6*p.K {
		t.Fatalf("p2 = %d out of (3k, 6k] for k=%d", p.P2, p.K)
	}
	if p.X < 1 || p.X >= p.P2 {
		t.Fatalf("x = %d out of [1, p2)", p.X)
	}
}

func TestFingerprintEdgeCases(t *testing.T) {
	// Empty input: two empty multisets, accept.
	m := core.NewMachine(1, 1)
	m.SetInput(nil)
	v, _, err := FingerprintMultisetEquality(m)
	if err != nil || v != core.Accept {
		t.Fatalf("empty input: %v, %v", v, err)
	}
	// Odd number of values: error.
	m2 := core.NewMachine(1, 1)
	m2.SetInput([]byte("0#1#0#"))
	if _, _, err := FingerprintMultisetEquality(m2); err == nil {
		t.Fatal("odd item count accepted")
	}
	// Unequal lengths: error (the theorem assumes equal lengths).
	m3 := core.NewMachine(1, 1)
	m3.SetInput([]byte("0#11#"))
	if _, _, err := FingerprintMultisetEquality(m3); err == nil {
		t.Fatal("unequal lengths accepted")
	}
	// Empty values: equal multisets trivially.
	m4 := core.NewMachine(1, 1)
	m4.SetInput([]byte("##"))
	v4, _, err := FingerprintMultisetEquality(m4)
	if err != nil || v4 != core.Accept {
		t.Fatalf("empty values: %v, %v", v4, err)
	}
}

func TestFingerprintRepeatedReducesError(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	// Completeness survives repetition.
	yes := problems.GenMultisetYes(8, 8, rng)
	m := core.NewMachine(1, 5)
	m.SetInput(yes.Encode())
	v, err := FingerprintRepeated(m, 5)
	if err != nil || v != core.Accept {
		t.Fatalf("repeated on yes: %v, %v", v, err)
	}
	// Soundness: with 5 repetitions false accepts are (1/2)^5 at
	// worst; over 100 instances none should survive.
	for i := 0; i < 100; i++ {
		no := problems.GenMultisetNo(8, 8, rng)
		m := core.NewMachine(1, int64(i))
		m.SetInput(no.Encode())
		v, err := FingerprintRepeated(m, 5)
		if err != nil {
			t.Fatal(err)
		}
		if v == core.Accept {
			t.Fatalf("no-instance accepted after 5 repetitions: %+v", no)
		}
	}
}

// The residue accumulation must be order-correct: a value and its
// bit-reversal hash differently (almost surely), while permuting
// whole values never changes the verdict.
func TestFingerprintPermutationInvariance(t *testing.T) {
	in := problems.Instance{
		V: []string{"1100", "0011", "1010"},
		W: []string{"0011", "1010", "1100"},
	}
	for seed := int64(0); seed < 20; seed++ {
		v, _, _ := runFingerprint(t, in, seed)
		if v != core.Accept {
			t.Fatalf("permuted multiset rejected at seed %d", seed)
		}
	}
}

// BenchmarkFingerprintTrial16KiB runs the trial of bench's fleet-proc
// workload: the fingerprint decider on one fixed 16 KiB no-instance
// (256 values of 31 bits per half), on a fresh machine per trial, with
// each trial's coins from trials.RNG as a fleet draws them.
func BenchmarkFingerprintTrial16KiB(b *testing.B) {
	input := problems.GenMultisetNo(256, 31, rand.New(rand.NewSource(1))).Encode()
	if len(input) != 16<<10 {
		b.Fatalf("encoded input is %d bytes, want %d", len(input), 16<<10)
	}
	_, trial := FingerprintInputWorkload(input)
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if r := trial(i, trials.RNG(1, i)); r.Err != "" {
			b.Fatal(r.Err)
		}
		i++
	}
}
