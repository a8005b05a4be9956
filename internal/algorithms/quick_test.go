package algorithms

import (
	"math/rand"
	"testing"
	"testing/quick"

	"extmem/internal/core"
	"extmem/internal/problems"
)

// Property: the 2-way tape merge sort agrees with Go's sort on
// arbitrary random item multisets (including empty items and
// duplicates).
func TestQuickMergeSortMatchesReference(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(szRaw % 40)
		items := make([]string, count)
		for i := range items {
			n := rng.Intn(6) // length 0 items are legal
			b := make([]byte, n)
			for j := range b {
				b[j] = '0' + byte(rng.Intn(2))
			}
			items[i] = string(b)
		}
		m := core.NewMachine(3, seed)
		tp := m.Tape(0)
		for _, it := range items {
			if err := WriteItem(tp, []byte(it)); err != nil {
				return false
			}
		}
		if err := binarySort(m, 0, 1, 2); err != nil {
			return false
		}
		var got []string
		rd := NewItemReader(tp, m.Mem(), "q")
		for {
			it, ok, err := rd.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			got = append(got, string(it))
		}
		if len(got) != count {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] > got[i] {
				return false
			}
		}
		return problems.MultisetEquality(problems.Instance{V: items, W: got})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the fingerprint is invariant under permuting either half
// (it decides a property of the multisets, not the sequences).
func TestQuickFingerprintShuffleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mSize := 1 + rng.Intn(10)
		n := 1 + rng.Intn(8)
		in := problems.GenMultisetYes(mSize, n, rng)
		shuffled := problems.Instance{
			V: append([]string(nil), in.V...),
			W: append([]string(nil), in.W...),
		}
		rng.Shuffle(len(shuffled.V), func(i, j int) {
			shuffled.V[i], shuffled.V[j] = shuffled.V[j], shuffled.V[i]
		})
		rng.Shuffle(len(shuffled.W), func(i, j int) {
			shuffled.W[i], shuffled.W[j] = shuffled.W[j], shuffled.W[i]
		})
		coins := rng.Int63()
		run := func(in problems.Instance) core.Verdict {
			m := core.NewMachine(1, coins) // same coins for both runs
			m.SetInput(in.Encode())
			v, _, err := FingerprintMultisetEquality(m)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		return run(in) == run(shuffled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the deterministic deciders are deterministic — identical
// verdict and identical resource report across machine seeds.
func TestQuickDecidersSeedIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		in := problems.GenMultisetYes(1+rng.Intn(12), 1+rng.Intn(8), rng)
		var first core.Resources
		var firstV core.Verdict
		for i, seed := range []int64{1, 99, 12345} {
			m := core.NewMachine(NumDeciderTapes, seed)
			m.SetInput(in.Encode())
			v, err := MultisetEqualityST(m)
			if err != nil {
				t.Fatal(err)
			}
			res := m.Resources()
			if i == 0 {
				first, firstV = res, v
				continue
			}
			if v != firstV || res.Reversals != first.Reversals || res.PeakMemoryBits != first.PeakMemoryBits {
				t.Fatalf("seed-dependent deterministic decider: %v vs %v", res, first)
			}
		}
	}
}

// Failure injection: a scan budget below the sort's requirement must
// surface as a budget error, not a wrong verdict.
func TestBudgetExhaustionFailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := problems.GenMultisetYes(64, 8, rng)
	m := core.NewMachine(NumDeciderTapes, 1)
	m.SetInput(in.Encode())
	for i := 0; i < NumDeciderTapes; i++ {
		m.Tape(i).SetBudget(3) // far below the required Θ(log N)
	}
	if _, err := MultisetEqualityST(m); err == nil {
		t.Fatal("budget exhaustion did not error")
	}
}

// Failure injection: a memory budget below the item size must surface
// as a budget error.
func TestMemoryBudgetExhaustionFailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := problems.GenMultisetYes(16, 32, rng)
	m := core.NewMachine(NumDeciderTapes, 1)
	m.SetInput(in.Encode())
	m.Mem().SetBudget(8) // items are 32 symbols
	if _, err := MultisetEqualityST(m); err == nil {
		t.Fatal("memory budget exhaustion did not error")
	}
}
