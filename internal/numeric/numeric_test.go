package numeric

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulModAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := rng.Uint64()
		b := rng.Uint64()
		m := rng.Uint64()
		if m == 0 {
			m = 1
		}
		got := MulMod(a, b, m)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, new(big.Int).SetUint64(m))
		if got != want.Uint64() {
			t.Fatalf("MulMod(%d,%d,%d) = %d, want %d", a, b, m, got, want.Uint64())
		}
	}
}

func TestAddSubMod(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a := rng.Uint64()
		b := rng.Uint64()
		m := rng.Uint64()
		if m == 0 {
			m = 1
		}
		sum := AddMod(a, b, m)
		wantSum := new(big.Int).Add(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		wantSum.Mod(wantSum, new(big.Int).SetUint64(m))
		if sum != wantSum.Uint64() {
			t.Fatalf("AddMod(%d,%d,%d) = %d, want %d", a, b, m, sum, wantSum.Uint64())
		}
		diff := SubMod(a, b, m)
		wantDiff := new(big.Int).Sub(new(big.Int).SetUint64(a%m), new(big.Int).SetUint64(b%m))
		wantDiff.Mod(wantDiff, new(big.Int).SetUint64(m))
		if diff != wantDiff.Uint64() {
			t.Fatalf("SubMod(%d,%d,%d) = %d, want %d", a, b, m, diff, wantDiff.Uint64())
		}
	}
}

func TestPowModAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := rng.Uint64()
		e := uint64(rng.Int63n(1 << 20))
		m := rng.Uint64()
		if m == 0 {
			m = 1
		}
		got := PowMod(a, e, m)
		want := new(big.Int).Exp(
			new(big.Int).SetUint64(a),
			new(big.Int).SetUint64(e),
			new(big.Int).SetUint64(m))
		if got != want.Uint64() {
			t.Fatalf("PowMod(%d,%d,%d) = %d, want %d", a, e, m, got, want.Uint64())
		}
	}
}

func TestPowModEdge(t *testing.T) {
	if PowMod(5, 0, 7) != 1 {
		t.Fatal("a^0 mod 7 != 1")
	}
	if PowMod(5, 100, 1) != 0 {
		t.Fatal("mod 1 should be 0")
	}
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		0: false, 1: false, 2: true, 3: true, 4: false, 5: true,
		6: false, 7: true, 9: false, 11: true, 25: false, 31: true,
		37: true, 41: true, 561: false /* Carmichael */, 1105: false,
	}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Fatalf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestIsPrimeAgainstSieve(t *testing.T) {
	const limit = 10000
	sieve := map[uint64]bool{}
	for _, p := range PrimesUpTo(limit) {
		sieve[p] = true
	}
	for n := uint64(0); n <= limit; n++ {
		if IsPrime(n) != sieve[n] {
			t.Fatalf("IsPrime(%d) = %v disagrees with sieve", n, IsPrime(n))
		}
	}
}

func TestIsPrimeLarge(t *testing.T) {
	cases := map[uint64]bool{
		(1 << 61) - 1:        true,  // Mersenne prime 2^61−1
		18446744073709551557: true,  // largest prime < 2^64
		18446744073709551555: false, //
		2147483647:           true,  // 2^31−1
		3215031751:           false, // strong pseudoprime to bases 2,3,5,7
		3825123056546413051:  false, // strong pseudoprime to bases 2..23
		9223372036854775783:  true,  // largest prime < 2^63
		1000000000000000003:  true,
		1000000000000000005:  false,
	}
	for n, want := range cases {
		if got := IsPrime(n); got != want {
			t.Fatalf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := map[uint64]uint64{0: 2, 2: 2, 3: 3, 4: 5, 14: 17, 90: 97}
	for n, want := range cases {
		got, err := NextPrime(n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("NextPrime(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRandomPrimeUpTo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		p, err := RandomPrimeUpTo(1000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p > 1000 || !IsPrime(p) {
			t.Fatalf("RandomPrimeUpTo returned %d", p)
		}
	}
	if _, err := RandomPrimeUpTo(1, rng); err == nil {
		t.Fatal("RandomPrimeUpTo(1) should fail")
	}
}

func TestRandomPrimeUpToIsRoughlyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	counts := map[uint64]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		p, err := RandomPrimeUpTo(30, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[p]++
	}
	// Primes ≤ 30: 2,3,5,7,11,13,17,19,23,29 — ten of them, expect
	// about trials/10 each; allow wide slack.
	if len(counts) != 10 {
		t.Fatalf("saw %d distinct primes, want 10", len(counts))
	}
	for p, c := range counts {
		if c < trials/20 || c > trials/5 {
			t.Fatalf("prime %d drawn %d times out of %d; not uniform", p, c, trials)
		}
	}
}

func TestBertrandPrime(t *testing.T) {
	for _, k := range []uint64{1, 2, 3, 10, 100, 12345, 1 << 30} {
		p, err := BertrandPrime(k)
		if err != nil {
			t.Fatalf("BertrandPrime(%d): %v", k, err)
		}
		if p <= 3*k || p > 6*k || !IsPrime(p) {
			t.Fatalf("BertrandPrime(%d) = %d out of range (3k, 6k]", k, p)
		}
	}
	if _, err := BertrandPrime(0); err == nil {
		t.Fatal("BertrandPrime(0) should fail")
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Fatalf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFingerprintModulus(t *testing.T) {
	k, err := FingerprintModulus(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	// m³·n = 64·8 = 512, ⌈log₂ 512⌉ = 9, k = 4608.
	if k != 4608 {
		t.Fatalf("FingerprintModulus(4,8) = %d, want 4608", k)
	}
	if _, err := FingerprintModulus(1<<32, 1<<32); err == nil {
		t.Fatal("overflow not detected")
	}
}

func TestPrimesUpTo(t *testing.T) {
	got := PrimesUpTo(30)
	want := []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	if len(got) != len(want) {
		t.Fatalf("PrimesUpTo(30) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PrimesUpTo(30) = %v", got)
		}
	}
	if PrimesUpTo(1) != nil {
		t.Fatal("PrimesUpTo(1) should be empty")
	}
}

// Property: PowMod satisfies a^(e1+e2) = a^e1 · a^e2 (mod m).
func TestQuickPowModHomomorphism(t *testing.T) {
	f := func(a, e1, e2 uint32, mRaw uint64) bool {
		m := mRaw%1000003 + 2
		lhs := PowMod(uint64(a), uint64(e1)+uint64(e2), m)
		rhs := MulMod(PowMod(uint64(a), uint64(e1), m), PowMod(uint64(a), uint64(e2), m), m)
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fermat's little theorem for random primes.
func TestQuickFermat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		p, err := RandomPrimeUpTo(1_000_000, rng)
		if err != nil {
			t.Fatal(err)
		}
		a := 1 + uint64(rng.Int63n(int64(p-1)))
		if PowMod(a, p-1, p) != 1 {
			t.Fatalf("Fermat fails for a=%d p=%d", a, p)
		}
	}
}

// montModuli returns odd moduli spread over the whole uint64 range:
// the extremes, moduli at and above 2^63 (where a reduction that kept
// a·b + q·m in 65 bits would need its final carry), and random ones of
// every bit length.
func montModuli(rng *rand.Rand) []uint64 {
	ms := []uint64{1, 3, 5, 7, 1<<32 + 15, 1<<63 - 25, 1<<63 + 1, 1<<63 + 29,
		15_600_000_000_000_000_001, 1<<64 - 59, 1<<64 - 3, 1<<64 - 1}
	for bitLen := 2; bitLen <= 64; bitLen++ {
		for i := 0; i < 4; i++ {
			m := rng.Uint64()>>(64-bitLen) | 1<<(bitLen-1) | 1
			ms = append(ms, m)
		}
	}
	return ms
}

func bigPowMod(a, e, m uint64) uint64 {
	return new(big.Int).Exp(new(big.Int).SetUint64(a), new(big.Int).SetUint64(e), new(big.Int).SetUint64(m)).Uint64()
}

func TestMontAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var f FixedBase
	for _, m := range montModuli(rng) {
		c := NewMont(m)
		bm := new(big.Int).SetUint64(m)
		operands := []uint64{0, 1, 2, m - 1, m, m + 1, 1<<64 - 1, rng.Uint64(), rng.Uint64() % m}
		for _, a := range operands {
			for _, b := range operands {
				got := c.mul(c.mul(c.toMont(a), c.toMont(b)), 1)
				want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
				want.Mod(want, bm)
				if got != want.Uint64() {
					t.Fatalf("m=%d: Montgomery %d·%d = %d, want %d", m, a, b, got, want.Uint64())
				}
			}
			f.Init(m, a, 64, 8)
			for _, e := range []uint64{0, 1, 2, 3, m - 1, 1<<64 - 1, rng.Uint64(), rng.Uint64() >> 40} {
				want := bigPowMod(a, e, m)
				if got := c.mul(c.exp(c.toMont(a), e), 1); got != want {
					t.Fatalf("Mont(%d): %d^%d = %d by exp, want %d", m, a, e, got, want)
				}
				if got := f.Pow(e); got != want {
					t.Fatalf("FixedBase(%d, %d).Pow(%d) = %d, want %d", m, a, e, got, want)
				}
			}
		}
	}
}

// fixedPow returns a^e mod m through a FixedBase for exponents of up
// to expBits bits serving uses powers.
func fixedPow(m, a, e uint64, expBits, uses int) uint64 {
	var f FixedBase
	f.Init(m, a, expBits, uses)
	return f.Pow(e)
}

func TestMontEdge(t *testing.T) {
	for a := uint64(0); a < 9; a++ {
		for e := uint64(0); e < 9; e++ {
			if got, want := fixedPow(3, a, e, 4, 1), bigPowMod(a, e, 3); got != want {
				t.Fatalf("%d^%d mod 3 = %d, want %d", a, e, got, want)
			}
		}
	}
	if got := fixedPow(1<<64-1, 0, 0, 1, 1); got != 1 {
		t.Fatalf("0^0 mod 2^64−1 = %d, want 1", got)
	}
	if got := fixedPow(1, 5, 0, 1, 1); got != 0 {
		t.Fatalf("5^0 mod 1 = %d, want 0", got)
	}
	for name, f := range map[string]func(){
		"NewMont accepted an even modulus":   func() { NewMont(10) },
		"FixedBase accepted an even modulus": func() { fixedPow(10, 3, 1, 4, 1) },
		"FixedBase.Pow accepted an exponent beyond its bits": func() {
			fixedPow(1<<64-59, 3, 1<<10, 10, 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error(name)
				}
			}()
			f()
		}()
	}
}

// FixedBase agrees with math/big on odd moduli of every bit length,
// moduli at and above 2^63 and 2^64−59, for the bases 0, 1, m−1 and
// bases ≥ m, at every exponent length, with every window width Init
// can choose. At each (length, use count) it reads every entry of the
// table that an exponent below 2^length can reach.
func TestFixedBaseAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var f FixedBase // reused: each Init must rebuild the whole table
	for _, m := range montModuli(rng) {
		for _, a := range []uint64{0, 1, 2, m - 1, m, m + 1, 1<<64 - 1, rng.Uint64()} {
			for _, expBits := range []int{64, bits.Len64(m), 1 + rng.Intn(64)} {
				f.Init(m, a, expBits, rng.Intn(1000))
				all := ^uint64(0) >> (64 - expBits) // the largest exponent
				for _, e := range []uint64{0, 1, all &^ (all >> 1), all, rng.Uint64() & all} {
					if got, want := f.Pow(e), bigPowMod(a, e, m); got != want {
						t.Fatalf("FixedBase(m=%d, x=%d, %d bits).Pow(%d) = %d, want %d", m, a, expBits, e, got, want)
					}
				}
			}
		}
	}

	moduli := []uint64{3, 1<<63 + 29, 1<<64 - 59, 1<<64 - 1, rng.Uint64() | 1, rng.Uint64()>>24 | 1}
	widths := map[uint]bool{}
	for expBits := 1; expBits <= 64; expBits++ {
		for _, uses := range []int{0, 1, 4, 16, 64, 512, 1 << 20} {
			m := moduli[rng.Intn(len(moduli))]
			a := rng.Uint64()
			f.Init(m, a, expBits, uses)
			widths[f.w] = true
			if f.windows > fixedMaxWindows || f.windows*int(f.w) < expBits {
				t.Fatalf("%d bits, %d uses: %d windows of %d bits", expBits, uses, f.windows, f.w)
			}
			// The exponent with digit d in every window reads entry d of
			// every window at once.
			for d := uint64(0); d < 1<<f.w; d++ {
				var e uint64
				for j := 0; j < f.windows; j++ {
					e |= d << (f.w * uint(j))
				}
				e &= ^uint64(0) >> (64 - expBits)
				if got, want := f.Pow(e), bigPowMod(a, e, m); got != want {
					t.Fatalf("FixedBase(m=%d, x=%d, %d bits, %d uses; width %d).Pow(%d) = %d, want %d",
						m, a, expBits, uses, f.w, e, got, want)
				}
			}
		}
	}
	for w := uint(1); w <= fixedMaxWidth; w++ {
		if !widths[w] {
			t.Errorf("no exponent length and use count chose window width %d", w)
		}
	}
}

// PowMod agrees with math/big on every nonzero modulus m, and so does
// FixedBase for the odd modulus m|1: at 64-bit exponents, and at e's
// own bit length with a use count drawn from m, which picks other
// window widths.
func FuzzPowMod(f *testing.F) {
	f.Add(uint64(5), uint64(0), uint64(7))
	f.Add(uint64(0), uint64(3), uint64(3))
	f.Add(uint64(1<<64-1), uint64(1<<64-1), uint64(1<<64-1))
	f.Add(uint64(123456789), uint64(987654321), uint64(15_600_000_000_000_000_001))
	f.Add(uint64(2), uint64(1<<20), uint64(1<<40))
	f.Fuzz(func(t *testing.T, a, e, m uint64) {
		want := bigPowMod(a, e, m|1)
		if got := fixedPow(m|1, a, e, 64, 1); got != want {
			t.Fatalf("FixedBase(m=%d, x=%d, 64 bits).Pow(%d) = %d, want %d", m|1, a, e, got, want)
		}
		if got := fixedPow(m|1, a, e, bits.Len64(e), int(m>>52)); got != want {
			t.Fatalf("FixedBase(m=%d, x=%d, %d bits).Pow(%d) = %d, want %d", m|1, a, bits.Len64(e), e, got, want)
		}
		if m == 0 {
			return
		}
		if got, want := PowMod(a, e, m), bigPowMod(a, e, m); got != want {
			t.Fatalf("PowMod(%d, %d, %d) = %d, want %d", a, e, m, got, want)
		}
	})
}
