package tape

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// Every property in this file runs as a table over all storage
// backends via forEachBackend: the cost model and tape semantics are
// defined above the Backend interface, so no assertion here may depend
// on where the bytes live.

func TestNewTapeIsEmptyForward(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := NewWith("t", o)
		defer tp.Close()
		if tp.Len() != 0 {
			t.Fatalf("Len = %d, want 0", tp.Len())
		}
		if tp.Dir() != Forward {
			t.Fatalf("Dir = %v, want Forward", tp.Dir())
		}
		if tp.Pos() != 0 || !tp.AtEnd() {
			t.Fatal("fresh tape should be at start and at end")
		}
		if got := tp.Read(); got != Blank {
			t.Fatalf("Read on empty tape = %d, want Blank", got)
		}
	})
}

func TestFromBytesPresentsInput(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := FromBytesWith("in", []byte("abc"), o)
		defer tp.Close()
		got, err := tp.ScanBytes()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "abc" {
			t.Fatalf("ScanBytes = %q, want %q", got, "abc")
		}
		if tp.Reversals() != 0 {
			t.Fatalf("forward scan charged %d reversals, want 0", tp.Reversals())
		}
		if tp.Stats().Scans() != 1 {
			t.Fatalf("Scans = %d, want 1", tp.Stats().Scans())
		}
	})
}

func TestReversalAccounting(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := FromBytesWith("t", []byte("abcd"), o)
		defer tp.Close()
		if _, err := tp.ScanBytes(); err != nil {
			t.Fatal(err)
		}
		if err := tp.Rewind(); err != nil {
			t.Fatal(err)
		}
		if tp.Reversals() != 1 {
			t.Fatalf("after scan+rewind: reversals = %d, want 1", tp.Reversals())
		}
		if _, err := tp.ScanBytes(); err != nil {
			t.Fatal(err)
		}
		if tp.Reversals() != 2 {
			t.Fatalf("after second scan: reversals = %d, want 2", tp.Reversals())
		}
		if tp.Stats().Scans() != 3 {
			t.Fatalf("Scans = %d, want 3", tp.Stats().Scans())
		}
	})
}

func TestRewindOnEmptyTapeIsFree(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := NewWith("t", o)
		defer tp.Close()
		if err := tp.Rewind(); err != nil {
			t.Fatal(err)
		}
		if tp.Reversals() != 0 {
			t.Fatalf("reversals = %d, want 0", tp.Reversals())
		}
	})
}

func TestBudgetEnforced(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := FromBytesWith("t", []byte("ab"), o)
		defer tp.Close()
		tp.SetBudget(0)
		if _, err := tp.ScanBytes(); err != nil {
			t.Fatalf("forward scan should be within budget: %v", err)
		}
		err := tp.Move(Backward)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		// Direction must be unchanged after a refused turn.
		if tp.Dir() != Forward {
			t.Fatalf("direction changed despite budget refusal")
		}
	})
}

func TestBudgetUnlimitedWhenNegative(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := FromBytesWith("t", []byte("ab"), o)
		defer tp.Close()
		tp.SetBudget(-1)
		for i := 0; i < 10; i++ {
			if err := tp.Move(Forward); err != nil {
				t.Fatal(err)
			}
			if err := tp.Move(Backward); err != nil {
				t.Fatal(err)
			}
		}
		if tp.Reversals() != 19 {
			t.Fatalf("reversals = %d, want 19", tp.Reversals())
		}
	})
}

func TestLeftEnd(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := NewWith("t", o)
		defer tp.Close()
		err := tp.Move(Backward)
		if !errors.Is(err, ErrLeftEnd) {
			t.Fatalf("err = %v, want ErrLeftEnd", err)
		}
		// The turn itself is charged even though the move failed.
		if tp.Reversals() != 1 {
			t.Fatalf("reversals = %d, want 1", tp.Reversals())
		}
	})
}

func TestWriteExtendsTape(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := NewWith("t", o)
		defer tp.Close()
		for i := 0; i < 5; i++ {
			if err := tp.WriteMove(byte('a'+i), Forward); err != nil {
				t.Fatal(err)
			}
		}
		if got := string(tp.Contents()); got != "abcde" {
			t.Fatalf("contents = %q, want %q", got, "abcde")
		}
		if tp.Len() != 5 {
			t.Fatalf("Len = %d, want 5", tp.Len())
		}
	})
}

func TestOverwrite(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := FromBytesWith("t", []byte("xyz"), o)
		defer tp.Close()
		tp.Write('A')
		if got := string(tp.Contents()); got != "Ayz" {
			t.Fatalf("contents = %q, want %q", got, "Ayz")
		}
	})
}

func TestTruncate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := FromBytesWith("t", []byte("abcdef"), o)
		defer tp.Close()
		for i := 0; i < 3; i++ {
			if err := tp.Move(Forward); err != nil {
				t.Fatal(err)
			}
		}
		tp.Truncate()
		if got := string(tp.Contents()); got != "abc" {
			t.Fatalf("contents = %q, want %q", got, "abc")
		}
	})
}

func TestSeekEnd(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := FromBytesWith("t", []byte("abc"), o)
		defer tp.Close()
		if err := tp.SeekEnd(); err != nil {
			t.Fatal(err)
		}
		if !tp.AtEnd() {
			t.Fatal("not at end after SeekEnd")
		}
		if tp.Pos() != 3 {
			t.Fatalf("pos = %d, want 3", tp.Pos())
		}
	})
}

func TestAppendBytesThenScanRoundTrips(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := NewWith("t", o)
		defer tp.Close()
		want := []byte("hello, tape")
		if err := tp.WriteBlock(want); err != nil {
			t.Fatal(err)
		}
		if err := tp.Rewind(); err != nil {
			t.Fatal(err)
		}
		got, err := tp.ScanBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip = %q, want %q", got, want)
		}
	})
}

func TestStatsCounters(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := FromBytesWith("t", []byte("ab"), o)
		defer tp.Close()
		tp.Read()
		tp.Write('x')
		if err := tp.Move(Forward); err != nil {
			t.Fatal(err)
		}
		s := tp.Stats()
		if s.Reads != 1 || s.Writes != 1 || s.Steps != 1 {
			t.Fatalf("stats = %+v, want reads=1 writes=1 steps=1", s)
		}
	})
}

func TestReadMove(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := FromBytesWith("t", []byte("ab"), o)
		defer tp.Close()
		b, err := tp.ReadMove(Forward)
		if err != nil || b != 'a' {
			t.Fatalf("ReadMove = (%q, %v), want ('a', nil)", b, err)
		}
		b, err = tp.ReadMove(Forward)
		if err != nil || b != 'b' {
			t.Fatalf("ReadMove = (%q, %v), want ('b', nil)", b, err)
		}
	})
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Fatal("Direction.String mismatch")
	}
}

// Property: writing any byte slice and scanning it back yields the same
// slice, and a forward-only write charges zero reversals.
func TestQuickRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		f := func(data []byte) bool {
			tp := NewWith("q", o)
			defer tp.Close()
			if err := tp.WriteBlock(data); err != nil {
				return false
			}
			if tp.Reversals() != 0 {
				return false
			}
			if err := tp.Rewind(); err != nil {
				return false
			}
			got, err := tp.ScanBytes()
			if err != nil {
				return false
			}
			if len(data) == 0 {
				return len(got) == 0
			}
			return bytes.Equal(got, data)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: the reversal counter equals the number of direction changes
// in any random walk that stays on the tape.
func TestQuickReversalsCountDirectionChanges(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 200; trial++ {
			tp := FromBytesWith("q", bytes.Repeat([]byte{'x'}, 50), o)
			dir := Forward
			want := 0
			for i := 0; i < 100; i++ {
				d := Forward
				if rng.Intn(2) == 0 {
					d = Backward
				}
				if d == Backward && tp.Pos() == 0 {
					// Still a legal turn; the move fails but the
					// reversal is charged if direction changed.
					if d != dir {
						want++
						dir = d
					}
					_ = tp.Move(d)
					continue
				}
				if d != dir {
					want++
					dir = d
				}
				if err := tp.Move(d); err != nil {
					t.Fatal(err)
				}
			}
			if tp.Reversals() != want {
				t.Fatalf("trial %d: reversals = %d, want %d", trial, tp.Reversals(), want)
			}
			tp.Close()
		}
	})
}

func TestString(t *testing.T) {
	tp := New("diag")
	if s := tp.String(); s == "" {
		t.Fatal("empty String()")
	}
}
