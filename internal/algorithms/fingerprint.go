package algorithms

import (
	"bytes"
	"fmt"
	"math/bits"

	"extmem/internal/core"
	"extmem/internal/memory"
	"extmem/internal/numeric"
	"extmem/internal/problems"
)

// FingerprintParams are the random parameters of one run of the
// Theorem 8(a) algorithm, exposed for experiments.
type FingerprintParams struct {
	M  int    // number of values per half
	N  int    // value length
	K  uint64 // k = m³·n·⌈log(m³·n)⌉
	P1 uint64 // random prime ≤ k (value reduction modulus)
	P2 uint64 // fixed prime in (3k, 6k] (polynomial evaluation field)
	X  uint64 // random evaluation point in {1, …, p2−1}
}

// FingerprintMultisetEquality is the randomized MULTISET-EQUALITY
// decider of Theorem 8(a). It runs on a machine with a single
// external tape holding the instance and uses exactly two sequential
// scans of the input (one head reversal) and O(log N) bits of
// internal memory:
//
//  1. First scan: determine m and n (all values must have the same
//     length n, as the theorem assumes).
//  2. Choose a random prime p1 ≤ k := m³·n·⌈log(m³·n)⌉.
//  3. Choose a prime p2 with 3k < p2 ≤ 6k (Bertrand's postulate).
//  4. Choose x ∈ {1, …, p2−1} uniformly.
//  5. Second scan: with e_i = v_i mod p1 and e'_i = v'_i mod p1,
//     accept iff Σ x^{e_i} ≡ Σ x^{e'_i} (mod p2).
//
// Error profile (co-RST): equal multisets are always accepted;
// distinct multisets are accepted with probability at most
// 1/3 + O(1/m) ≤ 1/2 for sufficiently large inputs.
//
// (The paper's step (5) states the sums modulo p1; as the surrounding
// proof makes clear — the polynomial is evaluated over F_{p2} — the
// evaluation modulus is p2, which is what we implement.)
func FingerprintMultisetEquality(m *core.Machine) (core.Verdict, FingerprintParams, error) {
	in := m.Tape(0)
	mem := m.Mem()
	var params FingerprintParams

	// Scan 1: determine m and n. The tape is swept in one bulk read.
	// After every symbol the machine holds the length of the value read
	// so far in fp.len. Its size changes only where that length gains a
	// bit (1, 2, 4, …), so only those symbols are charged: the meter
	// passes through the same states, and refuses at the same one, as
	// with a charge per symbol. A run's first charge is always made,
	// since before it the meter may hold more than its budget. (On a
	// mid-processing memory-budget refusal the tape counters reflect the
	// already-completed sweep rather than a partial one; such errors
	// abort the run, so no resource report is produced.)
	if err := in.Rewind(); err != nil {
		return core.Reject, params, err
	}
	scan1, err := in.ScanBytes()
	if err != nil {
		return core.Reject, params, err
	}
	count := 0
	firstLen := -1
	regM := mem.Register(counterRegion("fp.m"))
	regLen := mem.Register(counterRegion("fp.len"))
	lenBits := 0 // fp.len's charge in bits; 0 until this run charges it
	for rest := scan1; len(rest) > 0; {
		curLen := bytes.IndexByte(rest, problems.Separator)
		tail := curLen < 0 // an unterminated tail: charged, never counted
		if tail {
			curLen = len(rest)
		}
		for c := 1; c <= curLen; c <<= 1 {
			if b := bits.Len(uint(c)); b != lenBits {
				if err := regLen.Set(int64(b)); err != nil {
					return core.Reject, params, err
				}
				lenBits = b
			}
		}
		if tail {
			break
		}
		rest = rest[curLen+1:]
		if firstLen < 0 {
			firstLen = curLen
		} else if curLen != firstLen {
			return core.Reject, params, fmt.Errorf("algorithms: fingerprint requires equal-length values (%d vs %d)", firstLen, curLen)
		}
		count++
		if err := regM.SetInt(uint64(count)); err != nil {
			return core.Reject, params, err
		}
	}
	if count == 0 {
		return core.Accept, params, nil // two empty multisets
	}
	if count%2 != 0 {
		return core.Reject, params, fmt.Errorf("algorithms: odd number of values (%d)", count)
	}
	params.M = count / 2
	params.N = firstLen
	if params.N == 0 {
		// All values are the empty string; the multisets are equal.
		return core.Accept, params, nil
	}

	// Steps 2–4: random primes and evaluation point, all in internal
	// memory (numbers of O(log N) bits).
	k, err := numeric.FingerprintModulus(uint64(params.M), uint64(params.N))
	if err != nil {
		return core.Reject, params, err
	}
	params.K = k
	if err := chargeCounter(mem, "fp.k", k); err != nil {
		return core.Reject, params, err
	}
	p1, err := numeric.RandomPrimeUpTo(k, m.Rand())
	if err != nil {
		return core.Reject, params, err
	}
	params.P1 = p1
	p2, err := numeric.BertrandPrime(k)
	if err != nil {
		return core.Reject, params, err
	}
	params.P2 = p2
	params.X = 1 + uint64(m.Rand().Int63n(int64(p2-1)))
	for _, c := range []struct {
		tag string
		v   uint64
	}{{"fp.p1", p1}, {"fp.p2", p2}, {"fp.x", params.X}} {
		if err := chargeCounter(mem, c.tag, c.v); err != nil {
			return core.Reject, params, err
		}
	}

	// Scan 2 runs BACKWARD over the input (so the whole algorithm uses
	// exactly two sequential scans: one head reversal). Reading a value
	// backward yields its bits least-significant first, so the residue
	// e_i = v_i mod p1 is accumulated as e ← e + bit·pow (mod p1) with
	// pow ← 2·pow (mod p1); x^{e_i} mod p2 is then computed in internal
	// memory. All registers are O(log N) bits. The backward sweep is one
	// bulk read into scan 1's buffer, which holds exactly the cells
	// between the head and cell 0; symbols arrive in visit order, i.e.
	// reversed. e stays below p1, so each symbol's update is an addition
	// and a conditional subtraction, and x^{e_i} is one product per
	// exponent window by numeric.FixedBase, a fixed-base table for x mod
	// p2 built once per run: no division happens per symbol or per
	// product. That table, like the Montgomery context inside it, the
	// scan buffer and itemCharge's position table, is the simulator's
	// workspace, not the machine's internal memory: the meter charges
	// the same registers as with square-and-multiply powers (fp.e,
	// fp.pow, the sums), so the peak memory does not move (bench's
	// fleet-proc reads 290 bits). The e/pow registers are charged once
	// per item (see itemCharge), and the meter's current, peak and every
	// region still read as with a charge per symbol, bit for bit.
	var (
		sumV, sumW uint64
		haveItem   bool
		sepCount   int
		itemIdx    int
		xPow       numeric.FixedBase
	)
	xPow.Init(p2, params.X, bits.Len64(p1), count)
	regSumV := mem.Register(counterRegion("fp.sumv"))
	regSumW := mem.Register(counterRegion("fp.sumw"))
	ch := itemCharge{
		mem:     mem,
		regE:    mem.Register(counterRegion("fp.e")),
		regPow:  mem.Register(counterRegion("fp.pow")),
		eBits:   mem.Region(counterRegion("fp.e")),
		powBits: mem.Region(counterRegion("fp.pow")),
		p:       p1,
	}
	pos := make([]chargePos, 0, params.N)
	finalize := func(e uint64) error {
		term := xPow.Pow(e)
		if itemIdx < params.M {
			sumV = numeric.AddMod(sumV, term, p2)
		} else {
			sumW = numeric.AddMod(sumW, term, p2)
		}
		if err := regSumV.SetInt(sumV); err != nil {
			return err
		}
		return regSumW.SetInt(sumW)
	}
	scan2 := scan1
	if _, err := in.ReadBlockBackwardInto(scan2); err != nil {
		return core.Reject, params, err
	}
	for rest := scan2; ; {
		n := bytes.IndexByte(rest, problems.Separator)
		last := n < 0
		if last {
			n = len(rest)
		}
		// rest[:n] is one value, least-significant bit first, or the
		// unterminated tail, which is charged but never summed. Values
		// share one length, so only a tail can outgrow pos.
		if n > len(pos) {
			pos = appendPositions(pos, n, p1)
		}
		e, err := ch.item(rest[:n], pos)
		if err != nil {
			return core.Reject, params, err
		}
		if haveItem {
			if err := finalize(e); err != nil {
				return core.Reject, params, err
			}
		}
		if last {
			break
		}
		rest = rest[n+1:]
		sepCount++
		itemIdx = count - sepCount
		haveItem = true
	}
	return verdictOf(sumV == sumW), params, nil
}

// itemCharge accumulates one value's residue and charges the fp.e and
// fp.pow registers for it. After every symbol the machine holds e in
// fp.e, then pow in fp.pow, starting from whatever the meter held
// before the value: the previous value's final sizes, or a previous
// run's. Charged per symbol, that leaves the meter at the value's
// final sizes, with its peak raised to the highest usage any of those
// charges reached. itemCharge computes that highest usage while it
// reads the symbols and reproduces the meter with three charges: one
// to the peak, two to the final sizes. If that peak is over the
// budget, some per-symbol charge is refused, so the value is replayed
// symbol by symbol from the untouched meter, which refuses exactly
// that charge. TestFingerprintMatchesStepReference holds all of this
// to a per-symbol copy of the loop.
//
// pow after the j-th symbol is 2^(j+1) mod p for every value, so what
// depends on pow alone comes from a per-run table of the positions
// (chargePos), and each symbol costs one masked addition, one
// conditional subtraction, the size of e and a max.
type itemCharge struct {
	mem            *memory.Meter
	regE, regPow   *memory.Register
	eBits, powBits int64 // the sizes the meter holds for fp.e and fp.pow
	p              uint64
}

// chargePos is what the j-th symbol (j from 0) of every value adds to
// e and leaves in fp.pow.
type chargePos struct {
	add uint64 // 2^j mod p: the symbol's weight, added to e for a one bit
	pb  int64  // fp.pow's size after the symbol: bits.Len64(2^(j+1) mod p | 1)
	// hi is the larger of fp.pow's sizes before and after the symbol,
	// the size beside which the symbol's fp.e is charged. For j = 0 it
	// is pb alone, since the size before depends on the meter.
	hi int64
}

// appendPositions extends the position table pos for the modulus p to
// n entries.
func appendPositions(pos []chargePos, n int, p uint64) []chargePos {
	add, before := uint64(1), int64(0) // the next position's weight, and fp.pow's size before it
	if j := len(pos); j > 0 {
		last := pos[j-1]
		_, add = residueStep(0, last.add, p, 0)
		before = last.pb
	}
	for len(pos) < n {
		_, next := residueStep(0, add, p, 0) // pow after the symbol
		pb := int64(bits.Len64(next | 1))
		pos = append(pos, chargePos{add: add, pb: pb, hi: max(before, pb)})
		add, before = next, pb
	}
	return pos
}

// item returns the residue mod p of the value whose bits sym holds
// least-significant first and charges its registers. pos is the
// position table for p, with at least len(sym) entries.
func (c *itemCharge) item(sym []byte, pos []chargePos) (uint64, error) {
	if len(sym) == 0 {
		return 0, nil
	}
	pos = pos[:len(sym)]
	// The highest fp.e + fp.pow the per-symbol charges reach. The first
	// symbol's fp.e is 0 or 1 (p ≥ 2), a 1-bit value, charged beside the
	// fp.pow the meter holds before the value.
	top := 1 + c.powBits
	e := uint64(0)
	for j, b := range sym {
		var one uint64 // all ones for a one bit: no branch on random data
		if b == '1' {
			one = ^uint64(0)
		}
		if e += pos[j].add & one; e >= c.p {
			e -= c.p
		}
		top = max(top, int64(bits.Len64(e|1))+pos[j].hi)
	}
	eb, pb := int64(bits.Len64(e|1)), pos[len(pos)-1].pb
	base := c.mem.Current() - c.eBits - c.powBits
	if budget, ok := c.mem.Budget(); ok && base+top > budget {
		if err := c.replay(sym); err != nil {
			return 0, err
		}
	} else if err := c.settle(top, eb, pb); err != nil {
		return 0, err
	}
	c.eBits, c.powBits = eb, pb
	return e, nil
}

// settle moves the meter from (eBits, powBits) through a state whose
// fp.e + fp.pow is peak to (eb, pb). Every step passes only through
// totals at most peak, so no step raises the meter's peak above it.
func (c *itemCharge) settle(peak, eb, pb int64) error {
	// The first symbol's charge of fp.e, beside the old fp.pow, already
	// reaches at least 1 + powBits, so high ≥ 1.
	high := peak - c.powBits
	if err := c.regE.Set(high); err != nil {
		return err
	}
	// From (high, powBits) to (eb, pb): shrink a register before
	// growing the other. If fp.e would grow, eb + powBits > peak ≥
	// eb + pb, so fp.pow shrinks first.
	if eb <= high {
		if err := c.regE.Set(eb); err != nil {
			return err
		}
		return c.regPow.Set(pb)
	}
	if err := c.regPow.Set(pb); err != nil {
		return err
	}
	return c.regE.Set(eb)
}

// replay charges the value's registers symbol by symbol, returning
// the first refusal.
func (c *itemCharge) replay(sym []byte) error {
	e, pow := uint64(0), uint64(1)
	for _, b := range sym {
		e, pow = residueStep(e, pow, c.p, b)
		if err := c.regE.SetInt(e); err != nil {
			return err
		}
		if err := c.regPow.SetInt(pow); err != nil {
			return err
		}
	}
	return nil
}

// residueStep reads the next symbol of a value, least-significant bit
// first ('1' is a one bit, any other symbol a zero): e ← e + bit·pow
// and pow ← 2·pow, each brought back below p by one conditional
// subtraction. p ≤ k ≤ 2^61 (numeric.FingerprintModulus), so no sum
// overflows.
func residueStep(e, pow, p uint64, b byte) (uint64, uint64) {
	var one uint64 // all ones for a one bit: no branch on random data
	if b == '1' {
		one = ^uint64(0)
	}
	if e += pow & one; e >= p {
		e -= p
	}
	if pow += pow; pow >= p {
		pow -= p
	}
	return e, pow
}

// FingerprintRepeated runs the Theorem 8(a) decider s times with
// independent randomness and rejects if any run rejects. Since the
// algorithm has false positives only, repetition drives the
// false-positive probability below 2^{-s}-ish while keeping perfect
// completeness. Each repetition costs two scans.
func FingerprintRepeated(m *core.Machine, s int) (core.Verdict, error) {
	for i := 0; i < s; i++ {
		v, _, err := FingerprintMultisetEquality(m)
		if err != nil {
			return core.Reject, err
		}
		if v == core.Reject {
			return core.Reject, nil
		}
	}
	return core.Accept, nil
}
