package tape

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// This file enforces the package's cost-model invariant: every bulk
// operation must be observationally identical — tape contents, head
// position, direction, errors, and every Stats counter — to the
// single-step loop it replaces. The reference implementations below
// are the pre-bulk step-by-step bodies, expressed through the public
// single-cell API only.

// stepRef wraps a Tape and runs each bulk operation as its historical
// single-step loop.
type stepRef struct{ t *Tape }

func (r stepRef) Rewind() error {
	for r.t.Pos() > 0 {
		if err := r.t.Move(Backward); err != nil {
			return err
		}
	}
	return nil
}

func (r stepRef) SeekEnd() error {
	for r.t.Pos() < r.t.Len() {
		if err := r.t.Move(Forward); err != nil {
			return err
		}
	}
	return nil
}

func (r stepRef) ScanBytes() ([]byte, error) {
	var out []byte
	for !r.t.AtEnd() {
		b, err := r.t.ReadMove(Forward)
		if err != nil {
			return out, err
		}
		out = append(out, b)
	}
	return out, nil
}

func (r stepRef) ScanUntil(delim byte) ([]byte, bool, error) {
	var out []byte
	for !r.t.AtEnd() {
		b, err := r.t.ReadMove(Forward)
		if err != nil {
			return out, false, err
		}
		out = append(out, b)
		if b == delim {
			return out, true, nil
		}
	}
	return out, false, nil
}

// CopyDelimited is count rounds of ScanUntil on the source followed by
// WriteBlock of the bytes read on dst.
func (r stepRef) CopyDelimited(dst stepRef, delim byte, count int) (n int, partial bool, err error) {
	for n < count && !r.t.AtEnd() {
		rec, found, err := r.ScanUntil(delim)
		if err != nil {
			return n, false, err
		}
		if err := dst.WriteBlock(rec); err != nil {
			return n, false, err
		}
		if !found {
			return n, true, nil
		}
		n++
	}
	return n, false, nil
}

func (r stepRef) WriteBlock(data []byte) error {
	for _, b := range data {
		if err := r.t.WriteMove(b, Forward); err != nil {
			return err
		}
	}
	return nil
}

func (r stepRef) ReadBlock(n int) ([]byte, error) {
	var out []byte
	for i := 0; i < n; i++ {
		b, err := r.t.ReadMove(Forward)
		if err != nil {
			return out, err
		}
		out = append(out, b)
	}
	return out, nil
}

func (r stepRef) ReadBlockBackward(n int) ([]byte, error) {
	var out []byte
	for i := 0; i < n; i++ {
		if err := r.t.Move(Backward); err != nil {
			return out, err
		}
		out = append(out, r.t.Read())
	}
	return out, nil
}

func (r stepRef) MoveBackwardN(n int) error {
	for i := 0; i < n; i++ {
		if err := r.t.Move(Backward); err != nil {
			return err
		}
	}
	return nil
}

// sameErr reports whether the bulk and step paths failed the same way.
func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	for _, sentinel := range []error{ErrBudget, ErrLeftEnd} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return true
}

func diffState(t *testing.T, trial, op int, name string, bulk, step *Tape) {
	t.Helper()
	if !bytes.Equal(bulk.Contents(), step.Contents()) {
		t.Fatalf("trial %d op %d (%s): contents diverge:\nbulk %q\nstep %q", trial, op, name, bulk.Contents(), step.Contents())
	}
	if bulk.Pos() != step.Pos() || bulk.Dir() != step.Dir() {
		t.Fatalf("trial %d op %d (%s): head diverges: bulk pos=%d dir=%v, step pos=%d dir=%v",
			trial, op, name, bulk.Pos(), bulk.Dir(), step.Pos(), step.Dir())
	}
	if bulk.Stats() != step.Stats() {
		t.Fatalf("trial %d op %d (%s): stats diverge:\nbulk %+v\nstep %+v", trial, op, name, bulk.Stats(), step.Stats())
	}
}

// TestDifferentialBulkVsStep drives random operation sequences through
// a bulk tape and a step-by-step reference tape and requires identical
// observable behavior after every operation, including under reversal
// budgets (ErrBudget) and left-end violations (ErrLeftEnd). Both tapes
// live on the backend under test, so the property holds within every
// backend, not just against the mem reference.
func TestDifferentialBulkVsStep(t *testing.T) {
	forEachBackend(t, testDifferentialBulkVsStep)
}

func testDifferentialBulkVsStep(t *testing.T, o Options) {
	rng := rand.New(rand.NewSource(42))
	const trials = 300
	const opsPerTrial = 60

	for trial := 0; trial < trials; trial++ {
		var initial []byte
		if rng.Intn(4) > 0 {
			initial = randomBlock(rng, rng.Intn(40))
		}
		bulk := FromBytesWith("bulk", initial, o)
		step := FromBytesWith("step", initial, o)
		// The copy destinations: CopyDelimited writes another tape.
		bulkDst, stepDst := NewWith("bulkDst", o), NewWith("stepDst", o)
		if rng.Intn(3) == 0 {
			// A tight budget forces ErrBudget on some turns.
			budget := rng.Intn(6)
			for _, tp := range []*Tape{bulk, step, bulkDst, stepDst} {
				tp.SetBudget(budget)
			}
		}
		ref := stepRef{step}
		var scanBuf []byte // reused across ScanUntil ops

		for op := 0; op < opsPerTrial; op++ {
			name := ""
			var errB, errS error
			switch rng.Intn(15) {
			case 0:
				name = "Rewind"
				errB, errS = bulk.Rewind(), ref.Rewind()
			case 1:
				name = "SeekEnd"
				errB, errS = bulk.SeekEnd(), ref.SeekEnd()
			case 2:
				name = "ScanBytes"
				var gotB, gotS []byte
				gotB, errB = bulk.ScanBytes()
				gotS, errS = ref.ScanBytes()
				if !bytes.Equal(gotB, gotS) {
					t.Fatalf("trial %d op %d: ScanBytes %q vs %q", trial, op, gotB, gotS)
				}
			case 3:
				name = "ScanUntil(fresh)"
				delim := byte('#')
				if rng.Intn(2) == 0 {
					delim = byte(rng.Intn(4)) // include Blank and rare symbols
				}
				var buf []byte
				var gotB, gotS []byte
				var foundB, foundS bool
				gotB, foundB, errB = bulk.ScanUntil(delim, &buf)
				gotS, foundS, errS = ref.ScanUntil(delim)
				if !bytes.Equal(gotB, gotS) || foundB != foundS {
					t.Fatalf("trial %d op %d: ScanUntil(fresh) (%q,%v) vs (%q,%v)", trial, op, gotB, foundB, gotS, foundS)
				}
			case 4:
				name = "WriteBlock"
				data := randomBlock(rng, rng.Intn(20))
				errB, errS = bulk.WriteBlock(data), ref.WriteBlock(data)
			case 5:
				name = "ReadBlock"
				n := rng.Intn(bulk.Len() + 8) // may run past the materialized end
				var gotB, gotS []byte
				gotB, errB = bulk.ReadBlock(n)
				gotS, errS = ref.ReadBlock(n)
				if !bytes.Equal(gotB, gotS) {
					t.Fatalf("trial %d op %d: ReadBlock %q vs %q", trial, op, gotB, gotS)
				}
			case 6:
				name = "ReadBlockBackward"
				n := rng.Intn(bulk.Pos() + 4) // may fall off the left end
				var gotB, gotS []byte
				gotB, errB = bulk.ReadBlockBackward(n)
				gotS, errS = ref.ReadBlockBackward(n)
				if !bytes.Equal(gotB, gotS) {
					t.Fatalf("trial %d op %d: ReadBlockBackward %q vs %q", trial, op, gotB, gotS)
				}
			case 7:
				name = "MoveBackwardN"
				n := rng.Intn(bulk.Pos() + 4)
				errB, errS = bulk.MoveBackwardN(n), ref.MoveBackwardN(n)
			case 8:
				name = "Move"
				d := Forward
				if rng.Intn(2) == 0 {
					d = Backward
				}
				errB, errS = bulk.Move(d), step.Move(d)
			case 9:
				name = "ReadWrite"
				if bulk.Read() != step.Read() {
					t.Fatalf("trial %d op %d: Read diverges", trial, op)
				}
				b := byte('a' + rng.Intn(4))
				bulk.Write(b)
				step.Write(b)
			case 10:
				name = "Truncate"
				bulk.Truncate()
				step.Truncate()
			case 11:
				name = "ScanUntil"
				delim := byte('#')
				if rng.Intn(2) == 0 {
					delim = byte(rng.Intn(4))
				}
				var gotB, gotS []byte
				var foundB, foundS bool
				gotB, foundB, errB = bulk.ScanUntil(delim, &scanBuf)
				gotS, foundS, errS = ref.ScanUntil(delim)
				if !bytes.Equal(gotB, gotS) || foundB != foundS {
					t.Fatalf("trial %d op %d: ScanUntil (%q,%v) vs (%q,%v)", trial, op, gotB, foundB, gotS, foundS)
				}
			case 12:
				name = "CopyDelimited"
				delim := byte('#')
				if rng.Intn(3) == 0 {
					delim = byte(rng.Intn(4))
				}
				if rng.Intn(3) == 0 {
					// Turn the destination backward, so the copy must turn it again.
					errB, errS = bulkDst.Rewind(), stepRef{stepDst}.Rewind()
					if !sameErr(errB, errS) {
						t.Fatalf("trial %d op %d: destination Rewind: bulk %v, step %v", trial, op, errB, errS)
					}
				}
				count := rng.Intn(4)
				nB, partialB, eB := bulk.CopyDelimited(bulkDst, delim, count)
				nS, partialS, eS := ref.CopyDelimited(stepRef{stepDst}, delim, count)
				if nB != nS || partialB != partialS {
					t.Fatalf("trial %d op %d: CopyDelimited (%d,%v) vs (%d,%v)", trial, op, nB, partialB, nS, partialS)
				}
				errB, errS = eB, eS
			case 13:
				name = "ReadBlockInto"
				n := rng.Intn(bulk.Len() + 8)     // may run past the materialized end
				p := bytes.Repeat([]byte{'z'}, n) // stale bytes the read must overwrite, Blank past the end
				var gotS []byte
				errB = bulk.ReadBlockInto(p)
				gotS, errS = ref.ReadBlock(n)
				if errB == nil && !bytes.Equal(p, gotS) {
					t.Fatalf("trial %d op %d: ReadBlockInto %q vs %q", trial, op, p, gotS)
				}
			case 14:
				name = "ReadBlockBackwardInto"
				n := rng.Intn(bulk.Pos() + 4)     // may fall off the left end
				p := bytes.Repeat([]byte{'z'}, n) // stale bytes the read must overwrite, Blank past the end
				var k int
				var gotS []byte
				k, errB = bulk.ReadBlockBackwardInto(p)
				gotS, errS = ref.ReadBlockBackward(n)
				if !bytes.Equal(p[:k], gotS) {
					t.Fatalf("trial %d op %d: ReadBlockBackwardInto %q vs %q", trial, op, p[:k], gotS)
				}
			}
			if !sameErr(errB, errS) {
				t.Fatalf("trial %d op %d (%s): errors diverge: bulk %v, step %v", trial, op, name, errB, errS)
			}
			diffState(t, trial, op, name, bulk, step)
			diffState(t, trial, op, name, bulkDst, stepDst)
		}
		for _, tp := range []*Tape{bulk, step, bulkDst, stepDst} {
			tp.Close()
		}
	}
}

// TestDifferentialForwardSweepPattern pins the common algorithm shape —
// append, rewind, scan, rewind — to identical stats on both paths.
func TestDifferentialForwardSweepPattern(t *testing.T) {
	forEachBackend(t, testDifferentialForwardSweepPattern)
}

func testDifferentialForwardSweepPattern(t *testing.T, o Options) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		data := randomBlock(rng, 1+rng.Intn(100))
		bulk := NewWith("bulk", o)
		step := NewWith("step", o)
		ref := stepRef{step}

		if err := bulk.WriteBlock(data); err != nil {
			t.Fatal(err)
		}
		if err := ref.WriteBlock(data); err != nil {
			t.Fatal(err)
		}
		if err := bulk.Rewind(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Rewind(); err != nil {
			t.Fatal(err)
		}
		gotB, err := bulk.ScanBytes()
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := ref.ScanBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotB, data) || !bytes.Equal(gotS, data) {
			t.Fatalf("round trip mismatch: %q / %q want %q", gotB, gotS, data)
		}
		diffState(t, trial, 0, "sweep", bulk, step)
		// Forward append, backward rewind, forward scan: two turns.
		if bulk.Reversals() != 2 {
			t.Fatalf("append+rewind+scan charged %d reversals, want 2", bulk.Reversals())
		}
		bulk.Close()
		step.Close()
	}
}

// TestBulkBudgetExhaustion pins the budget-refusal accounting of each
// bulk operation against its step-by-step equivalent.
func TestBulkBudgetExhaustion(t *testing.T) {
	forEachBackend(t, testBulkBudgetExhaustion)
}

func testBulkBudgetExhaustion(t *testing.T, o Options) {
	mk := func() (*Tape, *Tape) {
		bulk := FromBytesWith("bulk", []byte("abcd"), o)
		step := FromBytesWith("step", []byte("abcd"), o)
		for _, tp := range []*Tape{bulk, step} {
			tp.SetBudget(0)
			if _, err := tp.ScanBytes(); err != nil { // forward: within budget
				t.Fatal(err)
			}
		}
		return bulk, step
	}

	bulk, step := mk()
	errB := bulk.Rewind()
	errS := stepRef{step}.Rewind()
	if !errors.Is(errB, ErrBudget) || !sameErr(errB, errS) {
		t.Fatalf("Rewind budget: bulk %v, step %v", errB, errS)
	}
	diffState(t, 0, 0, "Rewind/budget", bulk, step)

	bulk, step = mk()
	_, errB = bulk.ReadBlockBackward(2)
	_, errS = stepRef{step}.ReadBlockBackward(2)
	if !errors.Is(errB, ErrBudget) || !sameErr(errB, errS) {
		t.Fatalf("ReadBlockBackward budget: bulk %v, step %v", errB, errS)
	}
	diffState(t, 0, 0, "ReadBlockBackward/budget", bulk, step)

	bulk, step = mk()
	_, errB = bulk.ReadBlockBackwardInto(make([]byte, 2))
	_, errS = stepRef{step}.ReadBlockBackward(2)
	if !errors.Is(errB, ErrBudget) || !sameErr(errB, errS) {
		t.Fatalf("ReadBlockBackwardInto budget: bulk %v, step %v", errB, errS)
	}
	diffState(t, 0, 0, "ReadBlockBackwardInto/budget", bulk, step)

	bulk, step = mk()
	errB = bulk.MoveBackwardN(2)
	errS = stepRef{step}.MoveBackwardN(2)
	if !errors.Is(errB, ErrBudget) || !sameErr(errB, errS) {
		t.Fatalf("MoveBackwardN budget: bulk %v, step %v", errB, errS)
	}
	diffState(t, 0, 0, "MoveBackwardN/budget", bulk, step)

	// A backward-moving tape refusing to turn forward: the first
	// ReadMove/WriteMove of the step loop pays its read/write before
	// the refused turn, and the bulk path must match.
	mkBack := func() (*Tape, *Tape) {
		bulk := FromBytesWith("bulk", []byte("abcd"), o)
		step := FromBytesWith("step", []byte("abcd"), o)
		for _, tp := range []*Tape{bulk, step} {
			tp.SetBudget(1)
			if _, err := tp.ScanBytes(); err != nil {
				t.Fatal(err)
			}
			if err := tp.MoveBackwardN(2); err != nil { // burns the only reversal
				t.Fatal(err)
			}
		}
		return bulk, step
	}

	bulk, step = mkBack()
	_, errB = bulk.ScanBytes()
	_, errS = stepRef{step}.ScanBytes()
	if !errors.Is(errB, ErrBudget) || !sameErr(errB, errS) {
		t.Fatalf("ScanBytes budget: bulk %v, step %v", errB, errS)
	}
	diffState(t, 0, 0, "ScanBytes/budget", bulk, step)

	bulk, step = mkBack()
	errB = bulk.WriteBlock([]byte("xy"))
	errS = stepRef{step}.WriteBlock([]byte("xy"))
	if !errors.Is(errB, ErrBudget) || !sameErr(errB, errS) {
		t.Fatalf("WriteBlock budget: bulk %v, step %v", errB, errS)
	}
	diffState(t, 0, 0, "WriteBlock/budget", bulk, step)

	bulk, step = mkBack()
	var buf []byte
	_, _, errB = bulk.ScanUntil('d', &buf)
	_, _, errS = stepRef{step}.ScanUntil('d')
	if !errors.Is(errB, ErrBudget) || !sameErr(errB, errS) {
		t.Fatalf("ScanUntil budget: bulk %v, step %v", errB, errS)
	}
	diffState(t, 0, 0, "ScanUntil/budget", bulk, step)

	// CopyDelimited refused at its first item by the source's turn: the
	// source pays the first read, the destination is never touched.
	bulk, step = mkBack()
	bulkDst, stepDst := NewWith("bulkDst", o), NewWith("stepDst", o)
	_, _, errB = bulk.CopyDelimited(bulkDst, 'd', 2)
	_, _, errS = stepRef{step}.CopyDelimited(stepRef{stepDst}, 'd', 2)
	if !errors.Is(errB, ErrBudget) || !sameErr(errB, errS) {
		t.Fatalf("CopyDelimited source budget: bulk %v, step %v", errB, errS)
	}
	diffState(t, 0, 0, "CopyDelimited/source-budget", bulk, step)
	diffState(t, 0, 0, "CopyDelimited/source-budget", bulkDst, stepDst)

	// ... and by the destination's turn: the first item is read, and
	// its write writes one cell before the refused turn.
	bulk, step = FromBytesWith("bulk", []byte("ab#cd#"), o), FromBytesWith("step", []byte("ab#cd#"), o)
	bulkDst, stepDst = mkBack()
	_, _, errB = bulk.CopyDelimited(bulkDst, '#', 2)
	_, _, errS = stepRef{step}.CopyDelimited(stepRef{stepDst}, '#', 2)
	if !errors.Is(errB, ErrBudget) || !sameErr(errB, errS) {
		t.Fatalf("CopyDelimited destination budget: bulk %v, step %v", errB, errS)
	}
	diffState(t, 0, 0, "CopyDelimited/destination-budget", bulk, step)
	diffState(t, 0, 0, "CopyDelimited/destination-budget", bulkDst, stepDst)
	if got := string(bulkDst.Contents()); got != "abad" {
		t.Fatalf("refused copy left the destination %q, want %q", got, "abad")
	}
}

// TestBulkLeftEnd pins the left-end semantics of the backward bulk
// operations: a partial sweep is charged for exactly the cells it
// visited.
func TestBulkLeftEnd(t *testing.T) {
	forEachBackend(t, testBulkLeftEnd)
}

func testBulkLeftEnd(t *testing.T, o Options) {
	bulk := FromBytesWith("bulk", []byte("abc"), o)
	step := FromBytesWith("step", []byte("abc"), o)
	for _, tp := range []*Tape{bulk, step} {
		if _, err := tp.ScanBytes(); err != nil {
			t.Fatal(err)
		}
	}
	gotB, errB := bulk.ReadBlockBackward(10)
	gotS, errS := stepRef{step}.ReadBlockBackward(10)
	if !errors.Is(errB, ErrLeftEnd) || !sameErr(errB, errS) {
		t.Fatalf("errors: bulk %v, step %v", errB, errS)
	}
	if !bytes.Equal(gotB, gotS) || string(gotB) != "cba" {
		t.Fatalf("partial reads: bulk %q, step %q, want %q", gotB, gotS, "cba")
	}
	diffState(t, 0, 0, "ReadBlockBackward/leftend", bulk, step)
}

func randomBlock(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if rng.Intn(5) == 0 {
			out[i] = '#'
		} else {
			out[i] = byte('a' + rng.Intn(4))
		}
	}
	return out
}
