// Package numeric provides the number-theoretic substrate of the
// fingerprinting algorithm of Theorem 8(a): 64-bit modular
// arithmetic, deterministic Miller–Rabin primality testing, random
// prime selection below a bound, and Bertrand-postulate prime search.
//
// All arithmetic is exact on uint64 operands and allocates nothing.
// MulMod and PowMod divide a 128-bit product with math/bits.Div64.
// Mont, a Montgomery context for one odd modulus, multiplies with two
// 64×64→128-bit multiplications, one 64-bit one and a conditional
// addition, and no division; IsPrime runs through it. FixedBase raises
// one base to many exponents modulo one odd modulus from a table of
// Montgomery-form powers, one product per exponent window; the
// fingerprint's x^{e_i} mod p2 run through it.
package numeric

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// ErrNoPrime is returned when a prime search fails in its range.
var ErrNoPrime = errors.New("numeric: no prime found in range")

// MulMod returns a*b mod m using a 128-bit intermediate product. m
// must be nonzero.
func MulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// AddMod returns (a+b) mod m without overflow. m must be nonzero.
func AddMod(a, b, m uint64) uint64 {
	a %= m
	b %= m
	if a >= m-b && b != 0 {
		return a - (m - b)
	}
	return a + b
}

// SubMod returns (a−b) mod m. m must be nonzero.
func SubMod(a, b, m uint64) uint64 {
	a %= m
	b %= m
	if a >= b {
		return a - b
	}
	return a + (m - b)
}

// PowMod returns a^e mod m by binary exponentiation. m must be
// nonzero. PowMod(a, 0, m) = 1 mod m.
func PowMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	result := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, a, m)
		}
		a = MulMod(a, a, m)
		e >>= 1
	}
	return result
}

// millerRabinBases is a base set for which Miller–Rabin is a
// deterministic primality test for all n < 2^64 (Sorenson & Webster).
var millerRabinBases = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// IsPrime reports whether n is prime, deterministically for all
// uint64 values.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range millerRabinBases {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	// n is odd and above 37. Write n−1 = d·2^s with d odd; every base
	// runs in Montgomery form, where 1 and n−1 are c.one and n−c.one.
	s := bits.TrailingZeros64(n - 1)
	d := (n - 1) >> s
	c := NewMont(n)
	one, minusOne := c.one, n-c.one
	for _, a := range millerRabinBases {
		x := c.exp(c.toMont(a), d)
		if x == one || x == minusOne {
			continue
		}
		composite := true
		for i := 0; i < s-1; i++ {
			x = c.mul(x, x)
			if x == minusOne {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// Mont is a Montgomery multiplication context for one odd modulus m,
// with R = 2^64. A residue a is held as a·R mod m, so a product costs
// one reduction of a 128-bit value by m that needs no division. It is
// exact for every odd m < 2^64.
type Mont struct {
	m   uint64
	inv uint64 // m⁻¹ mod 2^64
	one uint64 // R mod m: 1 in Montgomery form
	r2  uint64 // R² mod m
}

// NewMont returns the context for the odd modulus m. It panics if m
// is even. Building it costs two divisions; its products cost none.
func NewMont(m uint64) Mont {
	if m&1 == 0 {
		panic(fmt.Sprintf("numeric: Montgomery modulus %d is even", m))
	}
	// Newton's iteration doubles the correct low bits of m⁻¹ each
	// step, from the 3 that m·m ≡ 1 (mod 8) gives: 5 steps reach 64.
	inv := m
	for range 5 {
		inv *= 2 - m*inv
	}
	one := -m % m // 2^64 mod m, computed as (2^64 − m) mod m
	return Mont{m: m, inv: inv, one: one, r2: MulMod(one, one, m)}
}

// mul returns a·b·R⁻¹ mod m for a·b < m·R, which holds whenever one
// factor is below m. With q = lo·m⁻¹ mod 2^64 the low words of a·b
// and q·m agree, so (a·b − q·m)/R is the difference of the high
// words. It lies in (−m, m), and one conditional addition of m brings
// it into [0, m) with no carry out of 64 bits, even for m ≥ 2^63.
func (c Mont) mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	h, _ := bits.Mul64(lo*c.inv, c.m)
	t := hi - h
	if hi < h {
		t += c.m
	}
	return t
}

// toMont returns a·R mod m for any a < 2^64: r2 < m keeps a·r2 below
// m·R, so no preliminary a mod m is needed.
func (c Mont) toMont(a uint64) uint64 { return c.mul(a, c.r2) }

// exp returns b^e in Montgomery form, for b in Montgomery form, by
// right-to-left binary exponentiation. The product is formed for every
// bit and kept only for a one bit, so the loop has no branch on the
// exponent's bits, and the squaring chain overlaps the product chain.
func (c Mont) exp(b, e uint64) uint64 {
	x := c.one
	for {
		if y := c.mul(x, b); e&1 == 1 {
			x = y
		}
		if e >>= 1; e == 0 {
			return x
		}
		b = c.mul(b, b)
	}
}

// The window width and window count caps of FixedBase: 64 entries per
// window, and the windows a 64-bit exponent needs at the widest width.
const (
	fixedMaxWidth   = 6
	fixedMaxWindows = (64 + fixedMaxWidth - 1) / fixedMaxWidth
)

// FixedBase raises one base x to many exponents modulo one odd m by
// the fixed-base windowed method of Brickell, Gordon, McCurley and
// Wilson ("Fast exponentiation with precomputation", EUROCRYPT '92).
// An exponent below 2^bits is read as windows of w bits, and the table
// holds x^(d·2^(w·j)) in Montgomery form for every w-bit digit d of
// every window j, so x^e is the product of one entry per window: a
// power costs one product per window, where binary exponentiation
// costs about two per exponent bit. The table is a fixed-size array,
// so a FixedBase held in a local variable costs no allocation.
type FixedBase struct {
	c       Mont
	bits    uint // exponents are below 2^bits
	w       uint // window width
	windows int
	table   [fixedMaxWindows][1 << fixedMaxWidth]uint64
}

// Init builds the table of x modulo the odd m for exponents below
// 2^bits, bits clamped to [1, 64], to serve about uses powers. Of the widths w ≤ 6 that need at most 11 windows, it takes
// the one with the fewest products overall: a window's table entries
// take 2^w − 1 (its digits 2 … 2^w−1, and a squaring for the next
// window's base), and each power takes one per window. It panics if m
// is even.
func (f *FixedBase) Init(m, x uint64, bits, uses int) {
	bits = min(max(bits, 1), 64)
	f.c = NewMont(m)
	f.bits = uint(bits)
	f.windows = 0
	for w := 1; w <= fixedMaxWidth; w++ {
		windows := (bits + w - 1) / w
		if windows > fixedMaxWindows {
			continue
		}
		if f.windows == 0 || windows*(1<<w-1+uses) < f.windows*(1<<f.w-1+uses) {
			f.w, f.windows = uint(w), windows
		}
	}
	half := 1 << (f.w - 1)
	b := f.c.toMont(x) // x^(2^(w·j)) for the window j being filled
	for j := range f.windows {
		row := &f.table[j]
		row[0], row[1] = f.c.one, b
		for d := 2; d < 1<<f.w; d++ {
			row[d] = f.c.mul(row[d-1], b)
		}
		b = f.c.mul(row[half], row[half])
	}
}

// Pow returns x^e mod m; x^0 = 1 mod m. It panics if e ≥ 2^bits.
func (f *FixedBase) Pow(e uint64) uint64 {
	if e>>f.bits != 0 {
		panic(fmt.Sprintf("numeric: exponent %d has more than %d bits", e, f.bits))
	}
	mask := uint64(1)<<f.w - 1
	r := f.table[0][e&mask]
	for j := 1; j < f.windows; j++ {
		e >>= f.w
		r = f.c.mul(r, f.table[j][e&mask])
	}
	return f.c.mul(r, 1)
}

// NextPrime returns the smallest prime ≥ n, or an error if none fits
// in uint64.
func NextPrime(n uint64) (uint64, error) {
	if n <= 2 {
		return 2, nil
	}
	if n%2 == 0 {
		n++
	}
	for ; n >= 3; n += 2 { // n >= 3 guards wraparound
		if IsPrime(n) {
			return n, nil
		}
	}
	return 0, fmt.Errorf("%w: above %d", ErrNoPrime, n)
}

// RandomPrimeUpTo returns a prime chosen uniformly at random from the
// primes ≤ k, using rejection sampling exactly as step (2) of the
// Theorem 8(a) algorithm: draw a uniform number in {2, …, k} and
// repeat until it is prime. It returns an error if k < 2.
func RandomPrimeUpTo(k uint64, rng *rand.Rand) (uint64, error) {
	if k < 2 {
		return 0, fmt.Errorf("%w: bound %d too small", ErrNoPrime, k)
	}
	for {
		n := 2 + uint64(rng.Int63n(int64(k-1)))
		if IsPrime(n) {
			return n, nil
		}
	}
}

// BertrandPrime returns a prime p with 3k < p ≤ 6k; one exists by
// Bertrand's postulate for every k ≥ 1 (step (3) of the Theorem 8(a)
// algorithm). It returns the smallest such prime.
func BertrandPrime(k uint64) (uint64, error) {
	if k == 0 {
		return 0, fmt.Errorf("%w: k = 0", ErrNoPrime)
	}
	p, err := NextPrime(3*k + 1)
	if err != nil {
		return 0, err
	}
	if p > 6*k {
		return 0, fmt.Errorf("%w: smallest prime above %d is %d > %d", ErrNoPrime, 3*k, p, 6*k)
	}
	return p, nil
}

// CeilLog2 returns ⌈log₂ n⌉ for n ≥ 1 (and 0 for n ≤ 1). The paper's
// ˙log is a ceiling logarithm.
func CeilLog2(n uint64) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(n - 1)
}

// FingerprintModulus computes the parameter k = m³ · n · ⌈log(m³·n)⌉
// of step (2) of Theorem 8(a)'s algorithm, reporting overflow.
func FingerprintModulus(m, n uint64) (uint64, error) {
	m3, ok := mulCheck(m, m)
	if ok {
		m3, ok = mulCheck(m3, m)
	}
	if !ok {
		return 0, fmt.Errorf("numeric: m³ overflows for m = %d", m)
	}
	m3n, ok := mulCheck(m3, n)
	if !ok {
		return 0, fmt.Errorf("numeric: m³·n overflows for m = %d, n = %d", m, n)
	}
	lg := uint64(CeilLog2(m3n))
	if lg == 0 {
		lg = 1
	}
	k, ok := mulCheck(m3n, lg)
	if !ok {
		return 0, fmt.Errorf("numeric: m³·n·log overflows for m = %d, n = %d", m, n)
	}
	// BertrandPrime needs 6k to fit.
	if k > (1<<63)/4 {
		return 0, fmt.Errorf("numeric: 6k overflows for m = %d, n = %d", m, n)
	}
	// Degenerate inputs (m = n = 1) give k = 1, below the smallest
	// prime; the algorithm's analysis only needs k at least this
	// large, so clamping preserves correctness.
	if k < 2 {
		k = 2
	}
	return k, nil
}

func mulCheck(a, b uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	return lo, hi == 0
}

// PrimesUpTo returns all primes ≤ n by a sieve of Eratosthenes. It is
// intended for the experiment harness, not the streaming algorithms.
func PrimesUpTo(n int) []uint64 {
	if n < 2 {
		return nil
	}
	sieve := make([]bool, n+1)
	var primes []uint64
	for i := 2; i <= n; i++ {
		if sieve[i] {
			continue
		}
		primes = append(primes, uint64(i))
		for j := i * i; j <= n && j > 0; j += i {
			sieve[j] = true
		}
	}
	return primes
}
