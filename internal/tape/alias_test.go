package tape

import (
	"bytes"
	"testing"
)

// TestReturnedSlicesAreOwnedByCaller enforces the ownership contract
// documented on ReadBlock, ReadBlockBackward, ScanBytes, Contents and
// the delimiter scan ScanUntilAppend (given no buffer): the returned
// slice is a fresh copy on every backend.
// Mutating it must never reach the tape, and writing to the tape must
// never reach a previously returned slice — the mem backend could
// cheaply alias its slice, so this is a mutation test, not a tautology.
func TestReturnedSlicesAreOwnedByCaller(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		seed := []byte("abcdefgh")
		grab := map[string]func(tp *Tape) []byte{
			"Contents": func(tp *Tape) []byte { return tp.Contents() },
			"ScanBytes": func(tp *Tape) []byte {
				got, err := tp.ScanBytes()
				if err != nil {
					t.Fatal(err)
				}
				return got
			},
			"ScanUntil": func(tp *Tape) []byte {
				got, _, err := tp.ScanUntilAppend('#', nil) // absent: sweeps the whole tape
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
	})
}
