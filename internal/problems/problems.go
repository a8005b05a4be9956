// Package problems defines the decision problems of Section 3 of the
// paper — SET-EQUALITY, MULTISET-EQUALITY, CHECK-SORT and the CHECK-ϕ
// problem of Lemma 22 — together with their input encoding, reference
// (unrestricted-model) deciders, and instance generators.
//
// An input instance is a string over the alphabet {0,1,#} of the form
//
//	v1# v2# … vm# v'1# v'2# … v'm#
//
// where the v_i and v'_i are 0-1-strings. The input size is
// N = 2m + Σ(|v_i| + |v'_i|), so for fixed-length strings of length n,
// N = 2m(n+1).
package problems

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"extmem/internal/perm"
)

// Separator is the delimiter symbol between values in the encoding.
const Separator byte = '#'

// A Problem identifies one of the paper's decision problems.
type Problem int

// The decision problems of Section 3.
const (
	SetEqualityProblem Problem = iota
	MultisetEqualityProblem
	CheckSortProblem
)

func (p Problem) String() string {
	switch p {
	case SetEqualityProblem:
		return "SET-EQUALITY"
	case MultisetEqualityProblem:
		return "MULTISET-EQUALITY"
	case CheckSortProblem:
		return "CHECK-SORT"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// An Instance holds the two halves of an input: V = (v_1, …, v_m) and
// W = (v'_1, …, v'_m). Values are 0-1-strings.
type Instance struct {
	V []string
	W []string
}

// ErrEncoding is returned when decoding an ill-formed input string.
var ErrEncoding = errors.New("problems: ill-formed instance encoding")

// M returns the number m of values in each half.
func (in Instance) M() int { return len(in.V) }

// Size returns the input size N = 2m + Σ(|v_i| + |v'_i|).
func (in Instance) Size() int {
	n := 2 * len(in.V)
	for _, v := range in.V {
		n += len(v)
	}
	for _, w := range in.W {
		n += len(w)
	}
	return n
}

// Validate checks that both halves have the same length and that all
// values are 0-1-strings.
func (in Instance) Validate() error {
	if len(in.V) != len(in.W) {
		return fmt.Errorf("%w: %d values vs %d values", ErrEncoding, len(in.V), len(in.W))
	}
	for _, half := range [][]string{in.V, in.W} {
		for _, v := range half {
			for i := 0; i < len(v); i++ {
				if v[i] != '0' && v[i] != '1' {
					return fmt.Errorf("%w: value %q contains %q", ErrEncoding, v, v[i])
				}
			}
		}
	}
	return nil
}

// Encode renders the instance in the paper's input format
// v1#…vm#v'1#…v'm#, in one allocation of exactly Size() bytes.
func (in Instance) Encode() []byte {
	b := make([]byte, 0, in.Size())
	for _, v := range in.V {
		b = append(append(b, v...), Separator)
	}
	for _, w := range in.W {
		b = append(append(b, w...), Separator)
	}
	return b
}

// Decode parses an encoded instance. The encoding must contain an even
// number 2m of '#'-terminated values.
func Decode(data []byte) (Instance, error) {
	if len(data) == 0 {
		return Instance{}, nil
	}
	if data[len(data)-1] != Separator {
		return Instance{}, fmt.Errorf("%w: input does not end with %q", ErrEncoding, Separator)
	}
	parts := strings.Split(string(data[:len(data)-1]), string(Separator))
	if len(parts)%2 != 0 {
		return Instance{}, fmt.Errorf("%w: odd number of values (%d)", ErrEncoding, len(parts))
	}
	m := len(parts) / 2
	in := Instance{V: parts[:m], W: parts[m:]}
	if err := in.Validate(); err != nil {
		return Instance{}, err
	}
	return in, nil
}

// SetEquality decides whether {v_1,…,v_m} = {v'_1,…,v'_m} as sets.
func SetEquality(in Instance) bool {
	a := make(map[string]bool, len(in.V))
	b := make(map[string]bool, len(in.W))
	for _, v := range in.V {
		a[v] = true
	}
	for _, w := range in.W {
		b[w] = true
	}
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// MultisetEquality decides whether the two halves are equal as
// multisets (same elements with the same multiplicities).
func MultisetEquality(in Instance) bool {
	if len(in.V) != len(in.W) {
		return false
	}
	counts := make(map[string]int, len(in.V))
	for _, v := range in.V {
		counts[v]++
	}
	for _, w := range in.W {
		counts[w]--
		if counts[w] < 0 {
			return false
		}
	}
	return true
}

// Less is the lexicographic order on 0-1-strings used by CHECK-SORT
// (ascending). Shorter strings that are prefixes compare smaller, as
// in standard lexicographic order on strings.
func Less(a, b string) bool { return a < b }

// CheckSort decides whether W is the lexicographically ascending
// sorted version of V (as a sequence, i.e. equal as multisets and W
// sorted).
func CheckSort(in Instance) bool {
	if !MultisetEquality(in) {
		return false
	}
	return sort.SliceIsSorted(in.W, func(i, j int) bool { return Less(in.W[i], in.W[j]) })
}

// Decide runs the reference decider for the given problem.
func Decide(p Problem, in Instance) bool {
	switch p {
	case SetEqualityProblem:
		return SetEquality(in)
	case MultisetEqualityProblem:
		return MultisetEquality(in)
	case CheckSortProblem:
		return CheckSort(in)
	default:
		panic(fmt.Sprintf("problems: unknown problem %d", int(p)))
	}
}

// CheckPhi decides the CHECK-ϕ problem of Lemma 22: whether
// (v_1,…,v_m) = (v'_ϕ(1),…,v'_ϕ(m)) for the permutation phi (0-based).
func CheckPhi(in Instance, phi perm.Perm) bool {
	if len(in.V) != len(in.W) || len(in.V) != len(phi) {
		return false
	}
	for i := range in.V {
		if in.V[i] != in.W[phi[i]] {
			return false
		}
	}
	return true
}

// SortedCopy returns the values of V sorted ascending — the correct
// output of the sorting problem (Corollary 10).
func SortedCopy(in Instance) []string {
	out := append([]string(nil), in.V...)
	sort.Slice(out, func(i, j int) bool { return Less(out[i], out[j]) })
	return out
}

// randomBitString returns a uniformly random 0-1-string of length n,
// built in place in its one allocation.
func randomBitString(n int, rng *rand.Rand) string {
	var b strings.Builder
	b.Grow(n)
	for range n {
		b.WriteByte('0' + byte(rng.Intn(2)))
	}
	return b.String()
}

// GenMultisetYes returns a yes-instance of MULTISET-EQUALITY with m
// values of length n: W is a random shuffle of V. Duplicates are
// allowed (and likely for small n).
func GenMultisetYes(m, n int, rng *rand.Rand) Instance {
	v := make([]string, m)
	for i := range v {
		v[i] = randomBitString(n, rng)
	}
	w := append([]string(nil), v...)
	rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	return Instance{V: v, W: w}
}

// GenMultisetNo returns a no-instance of MULTISET-EQUALITY: a shuffle
// of V with a single bit of a single element flipped. For n ≥ 1 and
// m ≥ 1 the result differs from V as a multiset unless the flip
// recreates an existing element with matching multiplicity; the
// generator retries until the instance is genuinely unequal.
func GenMultisetNo(m, n int, rng *rand.Rand) Instance {
	if m < 1 || n < 1 {
		panic("problems: GenMultisetNo requires m, n >= 1")
	}
	for {
		in := GenMultisetYes(m, n, rng)
		i := rng.Intn(m)
		j := rng.Intn(n)
		b := []byte(in.W[i])
		b[j] ^= 1 // '0' ^ 1 = '1' and vice versa
		in.W[i] = string(b)
		if !MultisetEquality(in) {
			return in
		}
	}
}

// GenSetYes returns a yes-instance of SET-EQUALITY with m distinct
// values of length n, W a shuffle of V. It panics if 2^n < m.
func GenSetYes(m, n int, rng *rand.Rand) Instance {
	if n < 63 && m > 1<<uint(n) {
		panic(fmt.Sprintf("problems: cannot draw %d distinct strings of length %d", m, n))
	}
	seen := make(map[string]bool, m)
	v := make([]string, 0, m)
	for len(v) < m {
		s := randomBitString(n, rng)
		if !seen[s] {
			seen[s] = true
			v = append(v, s)
		}
	}
	w := append([]string(nil), v...)
	rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	return Instance{V: v, W: w}
}

// GenSetNo returns a no-instance of SET-EQUALITY: one element of W is
// replaced by a fresh string outside the set.
func GenSetNo(m, n int, rng *rand.Rand) Instance {
	in := GenSetYes(m, n, rng)
	members := make(map[string]bool, m)
	for _, v := range in.V {
		members[v] = true
	}
	for {
		s := randomBitString(n, rng)
		if !members[s] {
			in.W[rng.Intn(m)] = s
			if !SetEquality(in) {
				return in
			}
		}
	}
}

// GenCheckSortYes returns a yes-instance of CHECK-SORT: W is the
// ascending sort of a random V.
func GenCheckSortYes(m, n int, rng *rand.Rand) Instance {
	in := GenMultisetYes(m, n, rng)
	in.W = SortedCopy(in)
	return in
}

// GenCheckSortNo returns a no-instance of CHECK-SORT, either by
// swapping two unequal adjacent elements of the sorted half (breaking
// sortedness) or by flipping a bit (breaking multiset equality),
// chosen at random.
func GenCheckSortNo(m, n int, rng *rand.Rand) Instance {
	if m < 1 || n < 1 {
		panic("problems: GenCheckSortNo requires m, n >= 1")
	}
	for {
		in := GenCheckSortYes(m, n, rng)
		if rng.Intn(2) == 0 && m >= 2 {
			i := rng.Intn(m - 1)
			in.W[i], in.W[i+1] = in.W[i+1], in.W[i]
		} else {
			i := rng.Intn(m)
			j := rng.Intn(n)
			b := []byte(in.W[i])
			b[j] ^= 1
			in.W[i] = string(b)
		}
		if !CheckSort(in) {
			return in
		}
	}
}

// Gen returns a yes- or no-instance for the given problem.
func Gen(p Problem, yes bool, m, n int, rng *rand.Rand) Instance {
	switch p {
	case SetEqualityProblem:
		if yes {
			return GenSetYes(m, n, rng)
		}
		return GenSetNo(m, n, rng)
	case MultisetEqualityProblem:
		if yes {
			return GenMultisetYes(m, n, rng)
		}
		return GenMultisetNo(m, n, rng)
	case CheckSortProblem:
		if yes {
			return GenCheckSortYes(m, n, rng)
		}
		return GenCheckSortNo(m, n, rng)
	default:
		panic(fmt.Sprintf("problems: unknown problem %d", int(p)))
	}
}
