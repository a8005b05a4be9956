// Package core implements the ST computation model of Grohe, Hernich
// and Schweikardt (PODS 2006): a machine with t external-memory tapes
// whose total number of sequential scans is the first cost measure,
// and an internal memory whose size in bits is the second.
//
// A Machine bundles the external tapes with an internal-memory meter
// and a source of randomness. Algorithms in internal/algorithms are
// written against this API; after a run, Resources reports exactly the
// two quantities the paper's complexity classes bound:
//
//   - Scans() = 1 + total head reversals over all external tapes
//     (Definition 1 of the paper), to be compared against r(N), and
//   - PeakMemoryBits, to be compared against s(N).
//
// The package also defines Bound, a concrete (r, s, t) resource bound,
// and verdicts for decision and Las Vegas computations.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"extmem/internal/memory"
	"extmem/internal/tape"
)

// Verdict is the outcome of a decision or Las Vegas computation.
type Verdict int

// Possible verdicts. DontKnow is the Las Vegas "I don't know" answer.
const (
	Reject Verdict = iota
	Accept
	DontKnow
)

func (v Verdict) String() string {
	switch v {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	default:
		return "don't know"
	}
}

// ErrTapeIndex is returned when a tape index is out of range.
var ErrTapeIndex = errors.New("core: tape index out of range")

// Machine is an ST-model machine: t external-memory tapes (tape 0 is
// the input tape), an internal-memory meter, and a random source.
type Machine struct {
	tapes []*tape.Tape
	mem   *memory.Meter
	seed  int64
	rng   *rand.Rand // built from seed by the first Rand call
	topts tape.Options
}

// NewMachine returns a machine with t external tapes and unlimited
// budgets. The random source is deterministic with the given seed.
// The tapes live in memory; NewMachineOpts selects other storage.
func NewMachine(t int, seed int64) *Machine {
	return NewMachineOpts(t, seed, tape.Options{})
}

// NewMachineOpts is NewMachine with an explicit tape storage selection:
// every tape the machine constructs — at creation and on every later
// SetTape/SetInput — uses the given backend options. Storage is an
// execution-shape choice, invisible to the cost model: the tapes charge
// identical reversals/steps/reads/writes wherever the cells live.
func NewMachineOpts(t int, seed int64, opts tape.Options) *Machine {
	if t < 1 {
		panic("core: a machine needs at least one external tape (the input tape)")
	}
	m := &Machine{
		mem:   memory.NewMeter(),
		seed:  seed,
		topts: opts,
	}
	for i := 0; i < t; i++ {
		m.tapes = append(m.tapes, tape.NewWith(fmt.Sprintf("t%d", i), opts))
	}
	return m
}

// Close releases the storage resources (spill files, mappings) of every
// tape. The machine must not run afterwards; Resources stays readable.
// A no-op for in-memory machines, and safe to defer unconditionally.
func (m *Machine) Close() error {
	var first error
	for _, t := range m.tapes {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetInput replaces the content of the input tape (tape 0) with data
// and resets nothing else. It must be called before the run starts.
func (m *Machine) SetInput(data []byte) {
	m.SetTape(0, data)
}

// SetTape replaces the content of external tape i with data, resetting
// that tape's counters. Like SetInput it models input placement, not a
// head operation, and must happen before the run starts: the sharded
// execution layer (internal/shard) uses it to hand a shard's sorted
// output tape to the merge machine, the distributed analogue of
// physically moving a tape between machines.
func (m *Machine) SetTape(i int, data []byte) {
	if i < 0 || i >= len(m.tapes) {
		panic(fmt.Sprintf("%v: %d of %d", ErrTapeIndex, i, len(m.tapes)))
	}
	m.tapes[i].Close()
	m.tapes[i] = tape.FromBytesWith(fmt.Sprintf("t%d", i), data, m.topts)
}

// SwapTape replaces the content of external tape i with data while
// KEEPING the tape's accumulated counters — the mid-run tape handoff
// of the sharded execution layer (relalg's sharded operator stages):
// the machine hands its tape to a shard fleet and receives the
// combined result back, rewound, with its own pre-handoff head traffic
// still on the books. Contrast SetTape, which models input placement before the
// run and therefore resets the counters.
func (m *Machine) SwapTape(i int, data []byte) {
	m.Tape(i).Replace(data)
}

// Tape returns external tape i (0-based). Tape 0 is the input tape.
func (m *Machine) Tape(i int) *tape.Tape {
	if i < 0 || i >= len(m.tapes) {
		panic(fmt.Sprintf("%v: %d of %d", ErrTapeIndex, i, len(m.tapes)))
	}
	return m.tapes[i]
}

// NumTapes returns the number of external tapes, the parameter t of
// the class ST(r, s, t).
func (m *Machine) NumTapes() int { return len(m.tapes) }

// Mem returns the internal-memory meter.
func (m *Machine) Mem() *memory.Meter { return m.mem }

// Rand returns the machine's random source. Randomized algorithms draw
// all coins from it so runs are reproducible per seed. The source is
// seeded on the first call, so a machine that never draws a coin — a
// sort, merge, partition or scan machine — never pays for one; the
// stream is rand.New(rand.NewSource(seed)) either way.
func (m *Machine) Rand() *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.seed))
	}
	return m.rng
}

// Resources is the resource report of a run.
type Resources struct {
	Reversals      int          // total head reversals over all external tapes
	PeakMemoryBits int64        // peak internal memory in bits
	Tapes          int          // number of external tapes
	Steps          int64        // total head movements over all external tapes
	PerTape        []tape.Stats // per-tape statistics
}

// Scans is 1 + Reversals, the number of sequential scans in the sense
// of Definition 1.
func (r Resources) Scans() int { return 1 + r.Reversals }

// String formats the report in the (r, s, t) order of the paper.
func (r Resources) String() string {
	return fmt.Sprintf("r=%d scans (%d reversals), s=%d bits, t=%d tapes, %d steps",
		r.Scans(), r.Reversals, r.PeakMemoryBits, r.Tapes, r.Steps)
}

// Resources returns the current resource report of the machine.
func (m *Machine) Resources() Resources {
	res := Resources{
		PeakMemoryBits: m.mem.Peak(),
		Tapes:          len(m.tapes),
	}
	for _, t := range m.tapes {
		s := t.Stats()
		res.Reversals += s.Reversals
		res.Steps += s.Steps
		res.PerTape = append(res.PerTape, s)
	}
	return res
}

// A Bound is a concrete (r, s, t) resource bound: r and s are functions
// of the input size N, t is the number of external tapes.
type Bound struct {
	Name string
	R    func(n int) int   // maximum number of sequential scans
	S    func(n int) int64 // maximum internal memory in bits
	T    int               // maximum number of external tapes
}

// Admits reports whether the resource report res on an input of size n
// stays within the bound, and if not, why.
func (b Bound) Admits(res Resources, n int) error {
	if r := b.R(n); res.Scans() > r {
		return fmt.Errorf("bound %s violated: %d scans > r(%d) = %d", b.Name, res.Scans(), n, r)
	}
	if s := b.S(n); res.PeakMemoryBits > s {
		return fmt.Errorf("bound %s violated: %d bits > s(%d) = %d", b.Name, res.PeakMemoryBits, n, s)
	}
	if res.Tapes > b.T {
		return fmt.Errorf("bound %s violated: %d tapes > t = %d", b.Name, res.Tapes, b.T)
	}
	return nil
}

// ConstR returns a constant scan bound r(N) = c.
func ConstR(c int) func(int) int { return func(int) int { return c } }

// LogR returns r(N) = ceil(c * log2 N), the O(log N) scan bound with
// explicit constant c.
func LogR(c float64) func(int) int {
	return func(n int) int {
		if n < 2 {
			return 1
		}
		return int(math.Ceil(c * math.Log2(float64(n))))
	}
}

// ConstS returns a constant memory bound s(N) = c bits.
func ConstS(c int64) func(int) int64 { return func(int) int64 { return c } }

// LogS returns s(N) = ceil(c * log2 N) bits, the O(log N) memory bound
// with explicit constant c.
func LogS(c float64) func(int) int64 {
	return func(n int) int64 {
		if n < 2 {
			return int64(math.Ceil(c))
		}
		return int64(math.Ceil(c * math.Log2(float64(n))))
	}
}

// FourthRootOverLogS returns s(N) = ceil(c * N^(1/4) / log2 N) bits,
// the internal-memory regime of Theorem 6.
func FourthRootOverLogS(c float64) func(int) int64 {
	return func(n int) int64 {
		if n < 2 {
			return int64(math.Ceil(c))
		}
		return int64(math.Ceil(c * math.Pow(float64(n), 0.25) / math.Log2(float64(n))))
	}
}
