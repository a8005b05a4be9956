package algorithms

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"extmem/internal/core"
	"extmem/internal/numeric"
	"extmem/internal/problems"
)

// fpOutcome is everything a fingerprint run leaves behind: its
// results and the machine's resource report and meter state.
type fpOutcome struct {
	Verdict core.Verdict
	Params  FingerprintParams
	Err     string
	Res     core.Resources
	Current int64
	Peak    int64
	Regions string // every live region and its size, sorted
}

func runFingerprintOutcome(m *core.Machine, decide func(*core.Machine) (core.Verdict, FingerprintParams, error)) fpOutcome {
	v, p, err := decide(m)
	mem := m.Mem()
	var regions strings.Builder
	for _, name := range mem.Regions() {
		fmt.Fprintf(&regions, "%s=%d ", name, mem.Region(name))
	}
	return fpOutcome{Verdict: v, Params: p, Err: fmt.Sprint(err), Res: m.Resources(),
		Current: mem.Current(), Peak: mem.Peak(), Regions: regions.String()}
}

// fpSetup prepares a machine before its first run: an unrelated
// region charged beforehand (pre > 0), then a budget (budget ≥ 0),
// which may lie below what the meter already holds.
type fpSetup struct {
	pre    int64
	budget int64
}

func (s fpSetup) machine(input []byte, seed int64) *core.Machine {
	m := core.NewMachine(1, seed)
	m.SetInput(input)
	if s.pre > 0 {
		if err := m.Mem().Set("unrelated", s.pre); err != nil {
			panic(err)
		}
	}
	m.Mem().SetBudget(s.budget)
	return m
}

// matchStepReference runs the fingerprint and the step-by-step
// reference runs times in a row, each on its own machine set up the
// same way, and fails on the first run whose outcomes differ. It
// returns the reference's peak.
func matchStepReference(t testing.TB, input []byte, seed int64, s fpSetup, runs int) int64 {
	t.Helper()
	got, want := s.machine(input, seed), s.machine(input, seed)
	for run := 1; run <= runs; run++ {
		g := runFingerprintOutcome(got, FingerprintMultisetEquality)
		w := runFingerprintOutcome(want, stepFingerprintMultisetEquality)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("input %q, seed %d, setup %+v, run %d:\ngot  %+v\nwant %+v", input, seed, s, run, g, w)
		}
	}
	return want.Mem().Peak()
}

// The batched fingerprint must leave every observable exactly as the
// step-by-step loop did: verdict, params, error, resource report and
// meter, over repeated runs on one machine, with other regions
// charged, and under budgets that refuse a charge mid-value.
func TestFingerprintMatchesStepReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	inputs := [][]byte{
		nil, []byte("#"), []byte("##"), []byte("####"),
		[]byte("0#1#0#"),         // odd count
		[]byte("01#011#"),        // unequal lengths
		[]byte("0#1#11"),         // unterminated tail
		[]byte("01#10#10#01"),    // unterminated last value
		[]byte("1#1#0110101110"), // tail longer than the values
		[]byte("a2#1x#Z1#10#"),   // symbols other than 0/1
		[]byte("111111111111#111111111111#000000000001#100000000000#"),
	}
	for i := 0; i < 40; i++ {
		mSize, n := 1+rng.Intn(300), 1+rng.Intn(40)
		if i%4 == 0 {
			mSize, n = 1+rng.Intn(8), 1+rng.Intn(6)
		}
		in := problems.GenMultisetYes(mSize, n, rng)
		if rng.Intn(2) == 0 {
			in = problems.GenMultisetNo(mSize, n, rng)
		}
		enc := in.Encode()
		switch i % 5 {
		case 1: // an unterminated tail
			enc = append(enc, []byte(randomBits(1+rng.Intn(2*n), rng))...)
		case 2: // symbols other than 0/1 read as zero bits
			for j := range enc {
				if enc[j] != problems.Separator && rng.Intn(4) == 0 {
					enc[j] = "2ax\x00\xff"[rng.Intn(5)]
				}
			}
		}
		inputs = append(inputs, enc)
	}
	for i, input := range inputs {
		seed := int64(1000 + i)
		peak := matchStepReference(t, input, seed, fpSetup{budget: -1}, 3)
		matchStepReference(t, input, seed, fpSetup{pre: 37, budget: -1}, 3)
		// Budgets from just below the first run's peak up: refusals land
		// mid-value, in the first run or (over a charged region) in a
		// later one.
		for _, b := range []int64{peak - 9, peak - 5, peak - 3, peak - 2, peak - 1, peak, peak + 1} {
			matchStepReference(t, input, seed, fpSetup{budget: b}, 3)
			matchStepReference(t, input, seed, fpSetup{pre: 5, budget: b + 5}, 3)
		}
		// A budget below what the meter already holds.
		matchStepReference(t, input, seed, fpSetup{pre: 40, budget: 30}, 2)
		if len(input) < 64 {
			for b := int64(0); b <= peak; b++ {
				matchStepReference(t, input, seed, fpSetup{budget: b}, 2)
			}
		}
	}
}

// FuzzFingerprintKernel holds the batched fingerprint to the
// step-by-step reference on arbitrary tapes, seeds, pre-charged
// regions and budgets, over up to three runs on one machine.
func FuzzFingerprintKernel(f *testing.F) {
	f.Add([]byte("01#10#10#01#"), int64(1), uint8(0), int16(-1), uint8(2))
	f.Add([]byte("0#1#11"), int64(2), uint8(9), int16(40), uint8(3))
	f.Add([]byte("a2#1x#Z1#10#"), int64(3), uint8(0), int16(60), uint8(1))
	f.Add([]byte("111111111111#111111111111#000000000001#100000000000#"), int64(4), uint8(3), int16(105), uint8(3))
	f.Fuzz(func(t *testing.T, input []byte, seed int64, pre uint8, budget int16, runs uint8) {
		if len(input) > 4096 {
			return
		}
		matchStepReference(t, input, seed, fpSetup{pre: int64(pre), budget: int64(budget)}, 1+int(runs%3))
	})
}

// stepFingerprintMultisetEquality is FingerprintMultisetEquality as it
// was before its batched, division-free kernel, charging fp.len, fp.e
// and fp.pow at every symbol and reducing with numeric.AddMod. It is
// kept verbatim as the reference for TestFingerprintMatchesStepReference
// and FuzzFingerprintKernel.
func stepFingerprintMultisetEquality(m *core.Machine) (core.Verdict, FingerprintParams, error) {
	in := m.Tape(0)
	mem := m.Mem()
	var params FingerprintParams

	// Scan 1: determine m and n. The tape is swept in one bulk read;
	// the register values are re-charged per symbol exactly as the
	// single-step loop did, via map-lookup-free meter handles. (On a
	// mid-processing memory-budget refusal the tape counters reflect
	// the already-completed sweep rather than a partial one; such
	// errors abort the run, so no resource report is produced.)
	if err := in.Rewind(); err != nil {
		return core.Reject, params, err
	}
	scan1, err := in.ScanBytes()
	if err != nil {
		return core.Reject, params, err
	}
	count := 0
	firstLen := -1
	curLen := 0
	regM := mem.Register(counterRegion("fp.m"))
	regLen := mem.Register(counterRegion("fp.len"))
	for _, b := range scan1 {
		if b == problems.Separator {
			if firstLen < 0 {
				firstLen = curLen
			} else if curLen != firstLen {
				return core.Reject, params, fmt.Errorf("algorithms: fingerprint requires equal-length values (%d vs %d)", firstLen, curLen)
			}
			count++
			curLen = 0
			if err := regM.SetInt(uint64(count)); err != nil {
				return core.Reject, params, err
			}
			continue
		}
		curLen++
		if err := regLen.SetInt(uint64(curLen)); err != nil {
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
	// pow ← 2·pow (mod p1); x^{e_i} mod p2 is then computed by binary
	// exponentiation in internal memory. All registers are O(log N)
	// bits. The backward sweep is one bulk read (symbols arrive in
	// visit order, i.e. reversed); the e/pow registers are re-charged
	// per symbol so the peak-memory report matches the step-by-step
	// loop bit for bit.
	var (
		sumV, sumW uint64
		e          uint64
		pow        uint64 = 1
		haveItem   bool
		sepCount   int
		itemIdx    int
	)
	regSumV := mem.Register(counterRegion("fp.sumv"))
	regSumW := mem.Register(counterRegion("fp.sumw"))
	regE := mem.Register(counterRegion("fp.e"))
	regPow := mem.Register(counterRegion("fp.pow"))
	finalize := func() error {
		term := numeric.PowMod(params.X, e, p2)
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
	scan2, err := in.ReadBlockBackward(in.Pos())
	if err != nil {
		return core.Reject, params, err
	}
	for _, b := range scan2 {
		if b == problems.Separator {
			if haveItem {
				if err := finalize(); err != nil {
					return core.Reject, params, err
				}
			}
			sepCount++
			itemIdx = count - sepCount
			e = 0
			pow = 1
			haveItem = true
			continue
		}
		bit := uint64(0)
		if b == '1' {
			bit = 1
		}
		if bit == 1 {
			e = numeric.AddMod(e, pow, p1)
		}
		pow = numeric.AddMod(pow, pow, p1)
		if err := regE.SetInt(e); err != nil {
			return core.Reject, params, err
		}
		if err := regPow.SetInt(pow); err != nil {
			return core.Reject, params, err
		}
	}
	if haveItem {
		if err := finalize(); err != nil {
			return core.Reject, params, err
		}
	}
	return verdictOf(sumV == sumW), params, nil
}
