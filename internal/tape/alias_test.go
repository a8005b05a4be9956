package tape

import (
	"bytes"
	"testing"
)

// TestReturnedSlicesAreOwnedByCaller enforces the ownership contract
// documented on ReadBlock, ReadBlockBackward, ScanBytes and Contents:
// the returned slice is a fresh copy on every backend, and so is the
// caller's slice that ReadBlockBackwardInto fills.
// Mutating it must never reach the tape, and writing to the tape must
// never reach a previously returned slice — the mem backend could
// cheaply alias its slice, so this is a mutation test, not a tautology.
// ScanUntil is the one exception; its subtest states its contract
// (testScanUntilViews).
func TestReturnedSlicesAreOwnedByCaller(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		seed := []byte("abcdefgh")
		grab := map[string]func(tp *Tape) []byte{
			"Contents": func(tp *Tape) []byte { return tp.Contents() },
			"AppendContents": func(tp *Tape) []byte {
				return tp.AppendContents(make([]byte, 0, 2))
			},
			"ScanBytes": func(tp *Tape) []byte {
				got, err := tp.ScanBytes()
				if err != nil {
					t.Fatal(err)
				}
				return got
			},
			"ReadBlock": func(tp *Tape) []byte {
				got, err := tp.ReadBlock(len(seed))
				if err != nil {
					t.Fatal(err)
				}
				return got
			},
			"ReadBlockBackward": func(tp *Tape) []byte {
				if err := tp.SeekEnd(); err != nil {
					t.Fatal(err)
				}
				got, err := tp.ReadBlockBackward(len(seed))
				if err != nil {
					t.Fatal(err)
				}
				return got
			},
			"ReadBlockBackwardInto": func(tp *Tape) []byte {
				if err := tp.SeekEnd(); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(seed))
				if _, err := tp.ReadBlockBackwardInto(got); err != nil {
					t.Fatal(err)
				}
				return got
			},
		}
		for name, f := range grab {
			t.Run(name, func(t *testing.T) {
				tp := FromBytesWith("alias", seed, o)
				defer tp.Close()
				got := f(tp)
				if len(got) != len(seed) {
					t.Fatalf("%s returned %d cells, want %d", name, len(got), len(seed))
				}

				// Caller mutation must not reach the tape.
				for i := range got {
					got[i] = '!'
				}
				if !bytes.Equal(tp.Contents(), seed) {
					t.Fatalf("mutating the slice returned by %s changed the tape: %q", name, tp.Contents())
				}

				// Tape mutation must not reach the caller's slice.
				snap := append([]byte(nil), f(tp)...)
				held := f(tp)
				if err := tp.Rewind(); err != nil {
					t.Fatal(err)
				}
				tp.Write('Z')
				if !bytes.Equal(held, snap) {
					t.Fatalf("writing to the tape changed the slice %s returned earlier: %q", name, held)
				}
			})
		}
		t.Run("ScanUntil", func(t *testing.T) { testScanUntilViews(t, o) })
	})
}

// testScanUntilViews states ScanUntil's contract: bytes that lie in one
// window come back as a view of the window, not a copy, so a later
// write to those cells on the same tape shows through it. A view is
// valid until the tape's next operation: operations on other tapes,
// which take and return pages of the same pool, leave it intact. Bytes
// that straddle two windows come back in the caller's buffer, which the
// caller owns like any copy.
func testScanUntilViews(t *testing.T, o Options) {
	data := append(pattern(1, winSize-8), "#xy#"...)
	data = append(data, pattern(2, 9)...) // straddles into the second window
	data = append(data, '#')
	tp := FromBytesWith("views", data, o)
	defer tp.Close()
	var buf []byte
	if _, _, err := tp.ScanUntil('#', &buf); err != nil {
		t.Fatal(err)
	}
	view, found, err := tp.ScanUntil('#', &buf)
	if err != nil || !found || string(view) != "xy#" {
		t.Fatalf("view = (%q, %v, %v), want xy#", view, found, err)
	}
	if buf != nil {
		t.Fatalf("a view within one window filled the buffer: %q", buf)
	}

	// Other tapes take, fill, free and zero pooled pages.
	for i := range 4 {
		other := FromBytesWith("other", pattern(i, 3*winSize), o)
		if _, err := other.ScanBytes(); err != nil {
			t.Fatal(err)
		}
		if err := other.WriteBlock(pattern(i+1, winSize)); err != nil {
			t.Fatal(err)
		}
		other.Close()
	}
	if string(view) != "xy#" {
		t.Fatalf("operations on other tapes changed the view to %q", view)
	}

	// A view is not a copy: a write to its cells shows through.
	if err := tp.MoveBackwardN(3); err != nil {
		t.Fatal(err)
	}
	tp.Write('Z')
	if string(view) != "Zy#" {
		t.Fatalf("after a write to its first cell the view reads %q, want Zy#", view)
	}

	// The straddling record is copied into the caller's buffer.
	if _, err := tp.ReadBlock(3); err != nil {
		t.Fatal(err)
	}
	held, found, err := tp.ScanUntil('#', &buf)
	want := append(pattern(2, 9), '#')
	if err != nil || !found || !bytes.Equal(held, want) {
		t.Fatalf("straddling record = (%q, %v, %v), want %q", held, found, err, want)
	}
	if len(buf) == 0 || &buf[0] != &held[0] {
		t.Fatal("a straddling record was not returned in the caller's buffer")
	}
	for i := range held {
		held[i] = '!'
	}
	if got := tp.Contents(); !bytes.Equal(got[winSize-4:], want) {
		t.Fatalf("mutating the buffer changed the tape: %q", got[winSize-4:])
	}
	copy(held, want)
	if err := tp.MoveBackwardN(len(want)); err != nil {
		t.Fatal(err)
	}
	if err := tp.WriteBlock(bytes.Repeat([]byte{'Q'}, len(want))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, want) {
		t.Fatalf("writing to the tape changed the buffer: %q", held)
	}
}

// AppendContents appends exactly what Contents returns, on every
// backend: after the caller's prefix, into whatever the buffer held
// before, with a dirty window flushed and never-written cells reading
// Blank. A buffer with the room is not reallocated.
func TestAppendContentsMatchesContents(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		tp := FromBytesWith("append", genBlock(3, 3*winSize/2), o)
		defer tp.Close()
		if err := tp.SeekEnd(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := tp.Move(Forward); err != nil {
				t.Fatal(err)
			}
		}
		tp.Write('w') // a dirty window past a run of never-written cells
		want := tp.Contents()
		if tp.Len() != len(want) || want[len(want)-2] != Blank || want[len(want)-1] != 'w' {
			t.Fatalf("setup: Len %d, %d cells, tail %q", tp.Len(), len(want), want[len(want)-6:])
		}
		buf := bytes.Repeat([]byte{0xff}, len(want)+8)[:2]
		got := tp.AppendContents(buf)
		if !bytes.Equal(got[:2], []byte{0xff, 0xff}) || !bytes.Equal(got[2:], want) {
			t.Fatal("AppendContents into a used buffer differs from prefix + Contents")
		}
		if &got[0] != &buf[0] {
			t.Error("AppendContents reallocated a buffer that had the room")
		}
		if got := tp.AppendContents(nil); !bytes.Equal(got, want) {
			t.Error("AppendContents(nil) differs from Contents")
		}
	})
}
