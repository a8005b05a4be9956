package lowerbound

import (
	"context"
	"fmt"
	"math/rand"

	"extmem/internal/problems"
	"extmem/internal/trials"
)

// StreamMachine is any deterministic machine that reads an input in a
// single forward scan with bounded internal state. The adversary only
// observes the serialized state, never the machine's internals.
type StreamMachine interface {
	// Reset returns the machine to its initial state.
	Reset()
	// Feed consumes one input symbol.
	Feed(b byte)
	// StateKey serializes the current internal state. Two runs with
	// equal keys are indistinguishable to the machine from here on.
	StateKey() string
	// Accepts reports the machine's verdict for the input consumed
	// so far (interpreted as a complete instance).
	Accepts() bool
}

// Collision is a fooling pair found by the adversary: two distinct
// first halves driving the machine into the same internal state.
type Collision struct {
	I, J   int // indices into the probed half inputs
	HalfI  problems.Instance
	HalfJ  problems.Instance
	States int // distinct states observed
}

// FindCollision feeds each candidate first half (encoded instance
// prefix v_1#…v_m#) to a fresh run of the machine and searches for
// two halves reaching the same state — guaranteed to exist by
// pigeonhole as soon as the number of candidates exceeds the
// machine's state count. This is the executable core of Theorem 6's
// mechanism: a machine that cannot distinguish two first halves must
// err on one of the composed instances.
func FindCollision(sm StreamMachine, halves []problems.Instance) (*Collision, bool) {
	seen := map[string]int{}
	for idx, h := range halves {
		key := feedHalf(sm, h)
		if prev, ok := seen[key]; ok {
			return &Collision{
				I: prev, J: idx,
				HalfI:  halves[prev],
				HalfJ:  halves[idx],
				States: len(seen),
			}, true
		}
		seen[key] = idx
	}
	return nil, false
}

// FoolingInstance composes a collision into a no-instance that the
// collided machine MUST misclassify relative to the yes-instance:
// the machine accepts HalfI·HalfI (it must, if it is correct on
// yes-instances) and, being in the same state after HalfJ, also
// accepts HalfJ·HalfI — a false positive when the halves differ as
// multisets.
func (c *Collision) FoolingInstance() problems.Instance {
	return problems.Instance{V: c.HalfJ.V, W: c.HalfI.V}
}

// YesInstance returns the honest instance HalfI·HalfI the fooling
// instance is indistinguishable from.
func (c *Collision) YesInstance() problems.Instance {
	return problems.Instance{V: c.HalfI.V, W: c.HalfI.V}
}

// Verify runs the machine on both composed instances and reports
// whether the adversary succeeded: the machine gives the same verdict
// on the yes-instance and the fooling no-instance (so it errs on one
// of them).
func (c *Collision) Verify(sm StreamMachine) (fooled bool, err error) {
	run := func(in problems.Instance) bool {
		sm.Reset()
		enc := in.Encode()
		for _, b := range enc {
			sm.Feed(b)
		}
		return sm.Accepts()
	}
	yes := c.YesInstance()
	no := c.FoolingInstance()
	if problems.MultisetEquality(no) {
		return false, fmt.Errorf("lowerbound: collision halves are multiset-equal; adversary needs distinct halves")
	}
	vYes := run(yes)
	vNo := run(no)
	return vYes == vNo, nil
}

// A StreamFactory builds a fresh, independent instance of the machine
// under attack. Parallel probing feeds each candidate half into its
// own machine, so the factory must not share mutable state between
// the machines it returns.
type StreamFactory func() StreamMachine

// feedHalf runs one candidate first half (encoded prefix v_1#…v_m#)
// through a fresh machine and returns the state key it lands in.
func feedHalf(sm StreamMachine, h problems.Instance) string {
	sm.Reset()
	for _, v := range h.V {
		for i := 0; i < len(v); i++ {
			sm.Feed(v[i])
		}
		sm.Feed(problems.Separator)
	}
	return sm.StateKey()
}

// ProbeStateKeys computes, on a probe fleet built by launch (a worker
// pool via trials.Pool, or a sharded fleet via internal/shard.LaunchRetry;
// nil means a default pool), the state key each candidate half drives
// a fresh machine into. The probes draw no randomness; the keys come
// back in half order, so the result is independent of the worker and
// shard counts. ctx bounds the probe fleet (nil means no bound).
func ProbeStateKeys(ctx context.Context, mk StreamFactory, halves []problems.Instance, launch trials.Launcher) []string {
	if launch == nil {
		launch = trials.Pool(0)
	}
	keys := make([]string, len(halves))
	launch(len(halves), 0, nil).Run(ctx,
		func(i int, _ *rand.Rand) trials.Result {
			keys[i] = feedHalf(mk(), halves[i])
			return trials.Result{}
		})
	return keys
}

// FindCollisionParallel is FindCollision with the probing fanned out
// over the fleet built by launch: it returns exactly the collision the
// sequential scan would find (the first duplicate state key in half
// order, with the same States census), because the pigeonhole search
// over the probed keys is still performed in order. Fanned-out probing
// visits every half even when an early collision exists — the price of
// parallelism — so a nil launch selects the early-exiting sequential
// scan instead of a default pool. ctx bounds the probe fleet.
func FindCollisionParallel(ctx context.Context, mk StreamFactory, halves []problems.Instance, launch trials.Launcher) (*Collision, bool) {
	if launch == nil {
		return FindCollision(mk(), halves)
	}
	keys := ProbeStateKeys(ctx, mk, halves, launch)
	seen := map[string]int{}
	for idx, key := range keys {
		if prev, ok := seen[key]; ok {
			return &Collision{
				I: prev, J: idx,
				HalfI:  halves[prev],
				HalfJ:  halves[idx],
				States: len(seen),
			}, true
		}
		seen[key] = idx
	}
	return nil, false
}

// RandomHalves generates count distinct first halves with m values of
// length n each.
func RandomHalves(count, m, n int, rng *rand.Rand) []problems.Instance {
	seen := map[string]bool{}
	var out []problems.Instance
	for len(out) < count {
		in := problems.GenMultisetYes(m, n, rng)
		half := problems.Instance{V: in.V}
		key := fmt.Sprint(half.V)
		if !seen[key] {
			seen[key] = true
			out = append(out, half)
		}
	}
	return out
}

// HashStream is a deterministic one-scan machine summarizing the
// stream into `bits` bits of state — the honest strawman every
// sketching algorithm reduces to. With more than 2^bits distinct
// halves it is guaranteed to collide.
type HashStream struct {
	Bits  uint
	state uint64
	// The accept predicate compares the halves' hashes: it remembers
	// the hash at the midpoint (position tracking costs it nothing
	// here; we let it know the instance shape out of band, which only
	// STRENGTHENS the machine the adversary defeats).
	halfState uint64
	items     int
	HalfItems int // items per half, set by the experiment
}

// NewHashStream returns a HashStream with the given state width.
func NewHashStream(bits uint, halfItems int) *HashStream {
	return &HashStream{Bits: bits, HalfItems: halfItems}
}

// Reset implements StreamMachine.
func (h *HashStream) Reset() { h.state, h.halfState, h.items = 0, 0, 0 }

// Feed implements StreamMachine: a multiplicative byte hash truncated
// to Bits bits.
func (h *HashStream) Feed(b byte) {
	h.state = (h.state*131 + uint64(b) + 1) & ((1 << h.Bits) - 1)
	if b == problems.Separator {
		h.items++
		if h.items == h.HalfItems {
			h.halfState = h.state
			h.state = 0
		}
	}
}

// StateKey implements StreamMachine: the FULL internal state
// (running hash, midpoint snapshot, item counter).
func (h *HashStream) StateKey() string {
	return fmt.Sprintf("%d|%d|%d", h.state, h.halfState, h.items)
}

// Accepts implements StreamMachine: equal half hashes.
func (h *HashStream) Accepts() bool { return h.state == h.halfState }

// CommutativeHashStream hashes each item order-independently (sum of
// item hashes): a sketch that genuinely attempts multiset equality.
// It too collides once the adversary probes more halves than it has
// states.
type CommutativeHashStream struct {
	Bits      uint
	HalfItems int
	state     uint64
	halfState uint64
	cur       uint64
	items     int
}

// NewCommutativeHashStream returns the order-independent variant.
func NewCommutativeHashStream(bits uint, halfItems int) *CommutativeHashStream {
	return &CommutativeHashStream{Bits: bits, HalfItems: halfItems}
}

// Reset implements StreamMachine.
func (c *CommutativeHashStream) Reset() { c.state, c.halfState, c.cur, c.items = 0, 0, 0, 0 }

// Feed implements StreamMachine.
func (c *CommutativeHashStream) Feed(b byte) {
	if b == problems.Separator {
		c.state = (c.state + c.cur*2654435761 + 1) & ((1 << c.Bits) - 1)
		c.cur = 0
		c.items++
		if c.items == c.HalfItems {
			c.halfState = c.state
			c.state = 0
		}
		return
	}
	c.cur = c.cur*31 + uint64(b)
}

// StateKey implements StreamMachine: the full internal state.
func (c *CommutativeHashStream) StateKey() string {
	return fmt.Sprintf("%d|%d|%d|%d", c.state, c.halfState, c.cur, c.items)
}

// Accepts implements StreamMachine.
func (c *CommutativeHashStream) Accepts() bool { return c.state == c.halfState }
