package algorithms

import (
	"fmt"

	"extmem/internal/core"
	"extmem/internal/memory"
	"extmem/internal/tape"
)

// Tape roles for the deterministic deciders: the input is on tape 0;
// tapes 1 and 2 hold the two halves; tapes 3–6 are merge lanes for the
// k-way sort engine (fan-in deciderFanIn). Corollary 7 achieves t = 2
// with the Chen–Yap in-place machinery; our implementation spends a
// constant number of extra tapes instead, which leaves the
// ST(O(log N), ·, O(1)) classification unchanged — and buys back
// reversals: ⌈log₄⌉ merge passes instead of ⌈log₂⌉, on top of
// run-formation memory eliminating the first ~log₂(runLen) passes.
const (
	tapeInput = 0
	tapeV     = 1
	tapeW     = 2
	tapeAuxA  = 3
	tapeAuxB  = 4
	tapeAuxC  = 5
	tapeAuxD  = 6
)

// NumDeciderTapes is the number of external tapes the deterministic
// deciders need.
const NumDeciderTapes = 7

// deciderFanIn is the merge fan-in of the deciders' sorts: the four
// lanes tapeAuxA–tapeAuxD.
const deciderFanIn = 4

// deciderSort sorts one half-tape with the k-way engine over the
// decider machines' four merge lanes.
func deciderSort(m *core.Machine, src int) error {
	return Sorter{FanIn: deciderFanIn, RunMemoryBits: DefaultRunMemoryBits}.
		Sort(m, src, []int{tapeAuxA, tapeAuxB, tapeAuxC, tapeAuxD})
}

// SplitHalves copies the first half of the input items (tape 0) onto
// tape dstV and the second half onto dstW, using two scans of the
// input (one to count, one to distribute).
func SplitHalves(m *core.Machine, dstV, dstW int) error {
	in := m.Tape(tapeInput)
	if err := in.Rewind(); err != nil {
		return err
	}
	total, err := CountItems(in, m.Mem(), "split.count")
	if err != nil {
		return err
	}
	if total%2 != 0 {
		return fmt.Errorf("algorithms: input has an odd number of items (%d)", total)
	}
	if err := in.Rewind(); err != nil {
		return err
	}
	tv := m.Tape(dstV)
	tw := m.Tape(dstW)
	if err := tv.Rewind(); err != nil {
		return err
	}
	tv.Truncate()
	if err := tw.Rewind(); err != nil {
		return err
	}
	tw.Truncate()
	rd := NewItemReader(in, m.Mem(), itemRegion("split"))
	if _, err := rd.CopyItems(tv, total/2); err != nil {
		return err
	}
	_, err = rd.CopyItems(tw, total/2)
	return err
}

// EqualItemStreams reads items from ta and tb in lockstep (both heads
// moving forward from their current positions), one buffered item per
// side, and reports whether the two item sequences are identical.
func EqualItemStreams(m *core.Machine, ta, tb *tape.Tape) (bool, error) {
	mem := m.Mem()
	defer mem.Free(itemRegion("cmp.a"))
	defer mem.Free(itemRegion("cmp.b"))
	ra := NewItemReader(ta, mem, itemRegion("cmp.a"))
	rb := NewItemReader(tb, mem, itemRegion("cmp.b"))
	for {
		a, okA, err := ra.Next()
		if err != nil {
			return false, err
		}
		b, okB, err := rb.Next()
		if err != nil {
			return false, err
		}
		if okA != okB {
			return false, nil
		}
		if !okA {
			return true, nil
		}
		if Compare(a, b) != 0 {
			return false, nil
		}
	}
}

// uniqueReader reads an ascending-sorted item stream's distinct items,
// skipping adjacent duplicates with one extra item buffer: the
// predecessor, copied out of the reader and charged to its own region.
type uniqueReader struct {
	rd       *ItemReader
	prev     []byte
	prevReg  *memory.Register
	havePrev bool
}

func (u *uniqueReader) next() ([]byte, bool, error) {
	for {
		it, ok, err := u.rd.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if u.havePrev && Compare(it, u.prev) == 0 {
			continue
		}
		u.prev = append(u.prev[:0], it...)
		if err := u.prevReg.Set(int64(len(u.prev))); err != nil {
			return nil, false, err
		}
		u.havePrev = true
		return it, true, nil
	}
}

// equalUniqueItemStreams reads two ascending-sorted item streams and
// reports whether their sets of distinct items coincide, skipping
// adjacent duplicates on each side with one extra item buffer per
// side.
func equalUniqueItemStreams(m *core.Machine, ta, tb *tape.Tape) (bool, error) {
	mem := m.Mem()
	defer func() {
		for _, r := range []string{"uniq.a", "uniq.b", "uniq.preva", "uniq.prevb"} {
			mem.Free(itemRegion(r))
		}
	}()
	ua := uniqueReader{rd: NewItemReader(ta, mem, itemRegion("uniq.a")), prevReg: mem.Register(itemRegion("uniq.preva"))}
	ub := uniqueReader{rd: NewItemReader(tb, mem, itemRegion("uniq.b")), prevReg: mem.Register(itemRegion("uniq.prevb"))}
	for {
		a, okA, err := ua.next()
		if err != nil {
			return false, err
		}
		b, okB, err := ub.next()
		if err != nil {
			return false, err
		}
		if okA != okB {
			return false, nil
		}
		if !okA {
			return true, nil
		}
		if Compare(a, b) != 0 {
			return false, nil
		}
	}
}

// MultisetEqualityST is the deterministic MULTISET-EQUALITY decider of
// Corollary 7: split the input halves onto two tapes, sort both with
// the external merge sort, and compare the sorted streams in one
// parallel scan. The machine must have NumDeciderTapes tapes with the
// instance encoded on tape 0.
func MultisetEqualityST(m *core.Machine) (core.Verdict, error) {
	return splitSortCompare(m, EqualItemStreams, tapeV, tapeW)
}

// SetEqualityST is the deterministic SET-EQUALITY decider of
// Corollary 7: like MultisetEqualityST but comparing the streams of
// distinct items.
func SetEqualityST(m *core.Machine) (core.Verdict, error) {
	return splitSortCompare(m, equalUniqueItemStreams, tapeV, tapeW)
}

// CheckSortST is the deterministic CHECK-SORT decider of Corollary 7:
// sort the first half and compare it item by item with the second
// half (the second half equals the ascending sort of the first half
// iff the sequences match).
func CheckSortST(m *core.Machine) (core.Verdict, error) {
	return splitSortCompare(m, EqualItemStreams, tapeV)
}

// splitSortCompare is the one body of the Corollary 7 deciders: split
// the input halves onto tapeV and tapeW, sort the listed half-tapes,
// rewind both halves and accept iff equal says their streams match.
func splitSortCompare(m *core.Machine, equal func(*core.Machine, *tape.Tape, *tape.Tape) (bool, error), sorted ...int) (core.Verdict, error) {
	if err := SplitHalves(m, tapeV, tapeW); err != nil {
		return core.Reject, err
	}
	for _, t := range sorted {
		if err := deciderSort(m, t); err != nil {
			return core.Reject, err
		}
	}
	if err := m.Tape(tapeV).Rewind(); err != nil {
		return core.Reject, err
	}
	if err := m.Tape(tapeW).Rewind(); err != nil {
		return core.Reject, err
	}
	eq, err := equal(m, m.Tape(tapeV), m.Tape(tapeW))
	if err != nil {
		return core.Reject, err
	}
	return verdictOf(eq), nil
}

// DecideST runs the deterministic Corollary 7 decider for the given
// problem on machine m (input on tape 0).
func DecideST(p int, m *core.Machine) (core.Verdict, error) {
	switch p {
	case 0:
		return SetEqualityST(m)
	case 1:
		return MultisetEqualityST(m)
	case 2:
		return CheckSortST(m)
	default:
		return core.Reject, fmt.Errorf("algorithms: unknown problem %d", p)
	}
}
