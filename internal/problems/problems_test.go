package problems

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := Instance{V: []string{"01", "11"}, W: []string{"11", "01"}}
	enc := in.Encode()
	if string(enc) != "01#11#11#01#" {
		t.Fatalf("Encode = %q", enc)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != 2 || got.V[0] != "01" || got.W[1] != "01" {
		t.Fatalf("Decode = %+v", got)
	}
}

// TestGeneratorsPinned pins, for one seed, the bytes of every
// generator's yes- and no-instance and how far they advance the
// source: the generators feed every experiment and benchmark input, so
// a change to how they build their values must move neither a byte nor
// a draw.
func TestGeneratorsPinned(t *testing.T) {
	want := map[Problem]struct {
		digest string
		next   int64
	}{
		SetEqualityProblem:      {"fb7836774f7d206b46d867ec75b996ed08ce2cc071fa346ccf4ad344d306492e", 2622562691103427389},
		MultisetEqualityProblem: {"9dc5958300933950abf4130b712cabb0bbfdd6bcc073d27c616ec61c6b513cea", 8451938169456555360},
		CheckSortProblem:        {"862bb0c7faf82de8ec2ee21a864714c3c6924db011eb3448a5243be8d761adf3", 8451938169456555360},
	}
	for p, w := range want {
		rng := rand.New(rand.NewSource(7))
		h := sha256.New()
		for _, yes := range []bool{true, false} {
			h.Write(Gen(p, yes, 300, 31, rng).Encode())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != w.digest {
			t.Errorf("%v: instances hash to %s, want %s", p, got, w.digest)
		}
		if got := rng.Int63(); got != w.next {
			t.Errorf("%v: next draw %d, want %d", p, got, w.next)
		}
	}
}

// TestEncodeAndValuesAllocateOnce checks that Encode makes one
// allocation of exactly Size() bytes and that a generated value is one
// allocation too, so that setting up a large input leaves little
// garbage behind.
func TestEncodeAndValuesAllocateOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := GenMultisetYes(64, 31, rng)
	if enc := in.Encode(); len(enc) != in.Size() || cap(enc) != in.Size() {
		t.Fatalf("Encode: len %d cap %d, want both %d", len(enc), cap(enc), in.Size())
	}
	if n := testing.AllocsPerRun(20, func() { _ = in.Encode() }); n != 1 {
		t.Errorf("Encode: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { _ = randomBitString(31, rng) }); n != 1 {
		t.Errorf("randomBitString: %v allocations, want 1", n)
	}
}

func TestDecodeEmpty(t *testing.T) {
	in, err := Decode(nil)
	if err != nil || in.M() != 0 {
		t.Fatalf("Decode(nil) = %+v, %v", in, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		[]byte("01#11"),     // missing trailing separator
		[]byte("01#11#00#"), // odd number of values
		[]byte("0x#11#"),    // bad character
	}
	for _, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Fatalf("Decode(%q) succeeded", b)
		}
	}
}

func TestSizeMatchesPaperFormula(t *testing.T) {
	// N = 2m(n+1) for fixed-length values.
	in := Instance{V: []string{"010", "111"}, W: []string{"000", "011"}}
	if in.Size() != 2*2*(3+1) {
		t.Fatalf("Size = %d, want 16", in.Size())
	}
	if in.Size() != len(in.Encode()) {
		t.Fatalf("Size %d != encoded length %d", in.Size(), len(in.Encode()))
	}
}

func TestSetEquality(t *testing.T) {
	cases := []struct {
		in   Instance
		want bool
	}{
		{Instance{V: []string{"0", "1"}, W: []string{"1", "0"}}, true},
		{Instance{V: []string{"0", "0"}, W: []string{"0", "1"}}, false},
		{Instance{V: []string{"0", "0", "1"}, W: []string{"0", "1", "1"}}, true}, // sets ignore multiplicity
		{Instance{V: []string{"0"}, W: []string{"1"}}, false},
		{Instance{}, true},
	}
	for i, c := range cases {
		if got := SetEquality(c.in); got != c.want {
			t.Fatalf("case %d: SetEquality = %v, want %v", i, got, c.want)
		}
	}
}

func TestMultisetEquality(t *testing.T) {
	cases := []struct {
		in   Instance
		want bool
	}{
		{Instance{V: []string{"0", "1"}, W: []string{"1", "0"}}, true},
		{Instance{V: []string{"0", "0", "1"}, W: []string{"0", "1", "1"}}, false},
		{Instance{V: []string{"0", "0"}, W: []string{"0", "0"}}, true},
		{Instance{}, true},
	}
	for i, c := range cases {
		if got := MultisetEquality(c.in); got != c.want {
			t.Fatalf("case %d: MultisetEquality = %v, want %v", i, got, c.want)
		}
	}
}

func TestCheckSort(t *testing.T) {
	cases := []struct {
		in   Instance
		want bool
	}{
		{Instance{V: []string{"10", "01"}, W: []string{"01", "10"}}, true},
		{Instance{V: []string{"10", "01"}, W: []string{"10", "01"}}, false}, // not sorted
		{Instance{V: []string{"10", "01"}, W: []string{"01", "11"}}, false}, // not the same multiset
		{Instance{V: []string{"0", "0"}, W: []string{"0", "0"}}, true},      // duplicates fine
		{Instance{}, true},
	}
	for i, c := range cases {
		if got := CheckSort(c.in); got != c.want {
			t.Fatalf("case %d: CheckSort = %v, want %v", i, got, c.want)
		}
	}
}

func TestGeneratorsAgainstDeciders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	problems := []Problem{SetEqualityProblem, MultisetEqualityProblem, CheckSortProblem}
	for _, p := range problems {
		for trial := 0; trial < 50; trial++ {
			m := 1 + rng.Intn(20)
			n := 1 + rng.Intn(12)
			if p == SetEqualityProblem && n < 6 {
				n = 6 // need room for m distinct strings
			}
			yes := Gen(p, true, m, n, rng)
			if !Decide(p, yes) {
				t.Fatalf("%v: generated yes-instance rejected: %+v", p, yes)
			}
			no := Gen(p, false, m, n, rng)
			if Decide(p, no) {
				t.Fatalf("%v: generated no-instance accepted: %+v", p, no)
			}
		}
	}
}

func TestSortedCopy(t *testing.T) {
	in := Instance{V: []string{"11", "00", "10"}}
	got := SortedCopy(in)
	want := []string{"00", "10", "11"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedCopy = %v", got)
		}
	}
	// Original untouched.
	if in.V[0] != "11" {
		t.Fatal("SortedCopy mutated input")
	}
}

func TestProblemString(t *testing.T) {
	if SetEqualityProblem.String() != "SET-EQUALITY" ||
		MultisetEqualityProblem.String() != "MULTISET-EQUALITY" ||
		CheckSortProblem.String() != "CHECK-SORT" {
		t.Fatal("Problem.String mismatch")
	}
	if !strings.Contains(Problem(99).String(), "99") {
		t.Fatal("unknown problem String")
	}
}

func TestValidateRejectsMismatchedHalves(t *testing.T) {
	in := Instance{V: []string{"0"}, W: []string{}}
	if err := in.Validate(); err == nil {
		t.Fatal("Validate accepted mismatched halves")
	}
}

// Property: Encode/Decode is the identity on random valid instances.
func TestQuickEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(10)
		n := r.Intn(8) // length-0 values are legal
		in := Instance{V: make([]string, m), W: make([]string, m)}
		for i := 0; i < m; i++ {
			in.V[i] = randomBitString(n, r)
			in.W[i] = randomBitString(n, r)
		}
		dec, err := Decode(in.Encode())
		if err != nil {
			return false
		}
		if dec.M() != m {
			return false
		}
		for i := 0; i < m; i++ {
			if dec.V[i] != in.V[i] || dec.W[i] != in.W[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rng, MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: multiset equality implies set equality; checksort implies
// multiset equality.
func TestQuickProblemImplications(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(8)
		n := 1 + rng.Intn(3)
		in := Instance{V: make([]string, m), W: make([]string, m)}
		for i := 0; i < m; i++ {
			in.V[i] = randomBitString(n, rng)
			in.W[i] = randomBitString(n, rng)
		}
		if MultisetEquality(in) && !SetEquality(in) {
			t.Fatalf("multiset equal but not set equal: %+v", in)
		}
		if CheckSort(in) && !MultisetEquality(in) {
			t.Fatalf("checksort holds but multisets differ: %+v", in)
		}
	}
}
