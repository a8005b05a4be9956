package algorithms

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"extmem/internal/memory"
	"extmem/internal/problems"
	"extmem/internal/tape"
)

// stepNext is the single-step reference for ItemReader.Next: the item
// is read one ReadMove at a time and then charged once, the documented
// order (a refused charge leaves the tape past the whole item).
func stepNext(tp *tape.Tape, mem *memory.Meter, region string) ([]byte, bool, error) {
	if tp.AtEnd() {
		mem.Free(region)
		return nil, false, nil
	}
	if err := mem.Set(region, 0); err != nil {
		return nil, false, err
	}
	var item []byte
	for {
		if tp.AtEnd() {
			return nil, false, fmt.Errorf("algorithms: item on tape %q not terminated by %q", tp.Name(), problems.Separator)
		}
		b, err := tp.ReadMove(tape.Forward)
		if err != nil {
			return nil, false, err
		}
		if b == problems.Separator {
			break
		}
		item = append(item, b)
	}
	if err := mem.Set(region, int64(len(item))); err != nil {
		return nil, false, err
	}
	return item, true, nil
}

// stepCopy is the single-step reference for ItemReader.CopyItems: each
// item is read one ReadMove at a time, then written one WriteMove at a
// time, with nothing charged to the meter.
func stepCopy(src, dst *tape.Tape, count int) (int, error) {
	copied := 0
	for copied < count && !src.AtEnd() {
		var rec []byte
		for !src.AtEnd() {
			b, err := src.ReadMove(tape.Forward)
			if err != nil {
				return copied, err
			}
			rec = append(rec, b)
			if b == problems.Separator {
				break
			}
		}
		for _, b := range rec {
			if err := dst.WriteMove(b, tape.Forward); err != nil {
				return copied, err
			}
		}
		if rec[len(rec)-1] != problems.Separator {
			return copied, fmt.Errorf("algorithms: unterminated item while copying from %q", src.Name())
		}
		copied++
	}
	return copied, nil
}

// TestItemReaderMatchesStepReads holds the item path to the cost model:
// on every storage backend, after every call, ItemReader.Next returns
// what the ReadMove reference returns (item, ok and error) and leaves
// every tape counter and the meter's current and peak usage identical;
// CopyItems matches a ReadMove/WriteMove copy; and WriteBlock(Record())
// matches WriteItem(item), a refused turn included. The streams hold
// empty items and unterminated tails, the tapes tight reversal budgets,
// the meters budgets that refuse items mid-stream, and the item region
// is freed between reads, so the reader's Register must re-register.
func TestItemReaderMatchesStepReads(t *testing.T) {
	for _, c := range []struct {
		name string
		o    tape.Options
	}{
		{"mem", tape.Options{}},
		{"file", tape.Options{Storage: tape.File, SpillDir: t.TempDir()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(16))
			for trial := 0; trial < 150; trial++ {
				testItemReaderTrial(t, trial, rng, c.o)
			}
		})
	}
}

func testItemReaderTrial(t *testing.T, trial int, rng *rand.Rand, o tape.Options) {
	const region = "item.diff"
	var input []byte
	for i := rng.Intn(12); i > 0; i-- {
		for j := rng.Intn(10); j > 0; j-- { // length 0 items are legal
			input = append(input, '0'+byte(rng.Intn(2)))
		}
		input = append(input, problems.Separator)
	}
	if rng.Intn(3) == 0 {
		input = append(input, "01"[:1+rng.Intn(2)]...) // unterminated tail
	}
	bulkIn, stepIn := tape.FromBytesWith("in", input, o), tape.FromBytesWith("in", input, o)
	bulkOut, stepOut := tape.NewWith("out", o), tape.NewWith("out", o)
	defer func() {
		for _, tp := range []*tape.Tape{bulkIn, stepIn, bulkOut, stepOut} {
			tp.Close()
		}
	}()
	bulkMem, stepMem := memory.NewMeter(), memory.NewMeter()
	if rng.Intn(2) == 0 {
		budget := int64(2 + rng.Intn(8))
		bulkMem.SetBudget(budget)
		stepMem.SetBudget(budget)
	}
	if rng.Intn(2) == 0 {
		budget := rng.Intn(3)
		for _, tp := range []*tape.Tape{bulkIn, stepIn, bulkOut, stepOut} {
			tp.SetBudget(budget)
		}
	}
	rd := NewItemReader(bulkIn, bulkMem, region)
	var item []byte // the last item both sides read
	haveItem := false

	for op := 0; op < 40; op++ {
		var name string
		var errB, errS error
		switch rng.Intn(9) {
		case 0:
			// A turn the next read must pay for, refused under a budget.
			name = "Rewind"
			errB, errS = bulkIn.Rewind(), stepIn.Rewind()
		case 1:
			// The region is freed under the reader's Register.
			name = "Free"
			bulkMem.Free(region)
			stepMem.Free(region)
		case 2:
			name = "SetOther"
			v := rng.Int63n(4)
			errB, errS = bulkMem.Set("other", v), stepMem.Set("other", v)
		case 3:
			name = "Copy"
			n := rng.Intn(3)
			var nB, nS int
			nB, errB = rd.CopyItems(bulkOut, n)
			nS, errS = stepCopy(stepIn, stepOut, n)
			if nB != nS {
				t.Fatalf("trial %d op %d: CopyItems copied %d, reference %d", trial, op, nB, nS)
			}
			haveItem = false // the reader's record is the last copied one
		case 4:
			if !haveItem {
				continue
			}
			name = "WriteRecord"
			if rng.Intn(2) == 0 {
				// Turn the output backward, so the write must turn again.
				if errB, errS = bulkOut.Rewind(), stepOut.Rewind(); errB == nil && errS == nil {
					bulkOut.Truncate()
					stepOut.Truncate()
				}
			}
			if errB == nil && errS == nil {
				outWrites := bulkOut.Stats().Writes
				errB, errS = bulkOut.WriteBlock(rd.Record()), WriteItem(stepOut, item)
				if errB != nil && bulkOut.Stats().Writes != outWrites+1 {
					t.Fatalf("trial %d op %d: refused write wrote %d cells, want 1", trial, op, bulkOut.Stats().Writes-outWrites)
				}
			}
		default:
			name = "Next"
			got, okB, eB := rd.Next()
			want, okS, eS := stepNext(stepIn, stepMem, region)
			if !bytes.Equal(got, want) || okB != okS {
				t.Fatalf("trial %d op %d: Next = (%q, %v), reference (%q, %v)", trial, op, got, okB, want, okS)
			}
			errB, errS = eB, eS
			haveItem = okB && eB == nil
			item = append(item[:0], want...)
		}
		if fmt.Sprint(errB) != fmt.Sprint(errS) {
			t.Fatalf("trial %d op %d (%s): error %v, reference %v", trial, op, name, errB, errS)
		}
		for _, p := range [][2]*tape.Tape{{bulkIn, stepIn}, {bulkOut, stepOut}} {
			if b, s := p[0].Stats(), p[1].Stats(); b != s || p[0].Pos() != p[1].Pos() || p[0].Dir() != p[1].Dir() {
				t.Fatalf("trial %d op %d (%s): tape %q stats %+v, reference %+v", trial, op, name, p[0].Name(), b, s)
			}
		}
		if !bytes.Equal(bulkOut.Contents(), stepOut.Contents()) {
			t.Fatalf("trial %d op %d (%s): output %q, reference %q", trial, op, name, bulkOut.Contents(), stepOut.Contents())
		}
		if bulkMem.Current() != stepMem.Current() || bulkMem.Peak() != stepMem.Peak() {
			t.Fatalf("trial %d op %d (%s): meter current/peak %d/%d, reference %d/%d",
				trial, op, name, bulkMem.Current(), bulkMem.Peak(), stepMem.Current(), stepMem.Peak())
		}
	}
}
