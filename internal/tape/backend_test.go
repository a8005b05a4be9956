package tape

// backend_test.go is the backend-conformance differential harness: the
// forEachBackend table that re-runs every tape property on every
// storage backend, and the lockstep driver (shared with
// FuzzTapeBackend) that applies one operation sequence to a tape per
// backend and to flatTape, an independent step-by-step reference, and
// requires identical observable behavior — results, errors, head and
// every Stats counter after every operation, contents at random
// operations and at the end. This is the enforcement of the backend
// contract: the backend may move the bytes' home, never a count.

import (
	"bytes"
	"testing"
)

// backendConfigs are the storage configurations every conformance test
// runs over: the two backends, and a spill configuration that starts in
// RAM and migrates to the file backend mid-sequence.
func backendConfigs(t testing.TB) []struct {
	Name string
	Opts Options
} {
	return []struct {
		Name string
		Opts Options
	}{
		{"mem", Options{}},
		{"file", Options{Storage: File, SpillDir: t.TempDir()}},
		{"file-spill64", Options{Storage: File, SpillDir: t.TempDir(), SpillThreshold: 64}},
	}
}

// forEachBackend runs fn as a subtest once per storage configuration.
// Tests built on it construct their tapes with NewWith/FromBytesWith
// and the given options, so the whole property set of this package
// holds verbatim on every backend.
func forEachBackend(t *testing.T, fn func(t *testing.T, o Options)) {
	t.Helper()
	for _, c := range backendConfigs(t) {
		t.Run(c.Name, func(t *testing.T) {
			fn(t, c.Opts)
		})
	}
}

// maxLockstepCells bounds tape growth in the lockstep driver so fuzzing
// cannot balloon the spill files.
const maxLockstepCells = 1 << 20

// genBlock derives a deterministic payload from a one-byte seed.
func genBlock(seed byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(int(seed) + i*7)
	}
	return out
}

// flatTape is the lockstep driver's reference: a flat []byte tape with
// the model's step semantics, written without any of Tape's code. Its
// bulk operations are loops of single-cell reads, writes and moves.
type flatTape struct {
	cells  []byte
	pos    int
	dir    Direction
	st     Stats // Size is len(cells), filled in by stats
	budget int   // < 0: unlimited
}

func newFlatTape() *flatTape { return &flatTape{dir: Forward, budget: -1} }

func (f *flatTape) stats() Stats {
	s := f.st
	s.Size = len(f.cells)
	return s
}

func (f *flatTape) read() byte {
	f.st.Reads++
	if f.pos < len(f.cells) {
		return f.cells[f.pos]
	}
	return Blank
}

func (f *flatTape) write(b byte) {
	f.st.Writes++
	for len(f.cells) <= f.pos {
		f.cells = append(f.cells, Blank)
	}
	f.cells[f.pos] = b
}

func (f *flatTape) move(d Direction) error {
	if d != f.dir {
		if f.budget >= 0 && f.st.Reversals >= f.budget {
			return ErrBudget
		}
		f.st.Reversals++
		f.dir = d
	}
	if d == Backward && f.pos == 0 {
		return ErrLeftEnd
	}
	f.pos += int(d)
	f.st.Steps++
	f.st.MaxCell = max(f.st.MaxCell, f.pos)
	return nil
}

func (f *flatTape) readForward(n int, stop func(b byte) bool) ([]byte, bool, error) {
	var out []byte
	for i := 0; i < n; i++ {
		b := f.read()
		if err := f.move(Forward); err != nil {
			return out, false, err
		}
		out = append(out, b)
		if stop(b) {
			return out, true, nil
		}
	}
	return out, false, nil
}

func (f *flatTape) writeBlock(data []byte) error {
	for _, b := range data {
		f.write(b)
		if err := f.move(Forward); err != nil {
			return err
		}
	}
	return nil
}

// copyDelimited is count rounds of a delimiter scan on f followed by a
// block write of the bytes read on dst.
func (f *flatTape) copyDelimited(dst *flatTape, delim byte, count int) (n int, partial bool, err error) {
	for n < count && f.pos < len(f.cells) {
		rec, found, err := f.readForward(f.rest(), func(b byte) bool { return b == delim })
		if err != nil {
			return n, false, err
		}
		if err := dst.writeBlock(rec); err != nil {
			return n, false, err
		}
		if !found {
			return n, true, nil
		}
		n++
	}
	return n, false, nil
}

func (f *flatTape) readBackward(n int) ([]byte, error) {
	var out []byte
	for i := 0; i < n; i++ {
		if err := f.move(Backward); err != nil {
			return out, err
		}
		out = append(out, f.read())
	}
	return out, nil
}

func (f *flatTape) moveBackward(n int) error {
	for i := 0; i < n; i++ {
		if err := f.move(Backward); err != nil {
			return err
		}
	}
	return nil
}

func (f *flatTape) seekEnd() error {
	for f.pos < len(f.cells) {
		if err := f.move(Forward); err != nil {
			return err
		}
	}
	return nil
}

// rest is the number of cells from the head to the end of the tape.
func (f *flatTape) rest() int { return max(len(f.cells)-f.pos, 0) }

func never(byte) bool { return false }

// runBackendLockstep decodes ops as an operation sequence and applies
// it, one operation at a time, to a tape on every backend and to the
// flatTape reference, failing on the first divergence in returned
// bytes, error class, head position, direction or Stats. Each tape has
// a destination tape on the same backend, which CopyDelimited writes
// and a few operations of its own turn, truncate and budget. Contents
// are compared after an operation whose code byte is 0xF0 or above,
// and at the end: comparing them after every operation would move
// every window, which would hide a window that stays dirty across
// operations.
func runBackendLockstep(t *testing.T, ops []byte) {
	t.Helper()
	configs := backendConfigs(t)
	tapes := make([]*Tape, len(configs))
	dsts := make([]*Tape, len(configs))
	dstOf := map[*Tape]*Tape{}
	bufOf := map[*Tape]*[]byte{} // each tape's ScanUntil buffer, reused
	for i, c := range configs {
		tapes[i] = NewWith("lockstep", c.Opts)
		dsts[i] = NewWith("lockstep-dst", c.Opts)
		defer tapes[i].Close()
		defer dsts[i].Close()
		dstOf[tapes[i]] = dsts[i]
		bufOf[tapes[i]] = new([]byte)
	}
	ref, refDst := newFlatTape(), newFlatTape()

	pos := 0
	arg := func() byte {
		if pos >= len(ops) {
			return 0
		}
		b := ops[pos]
		pos++
		return b
	}
	check := func(op int, name string, contents bool) {
		t.Helper()
		for _, side := range []struct {
			tapes []*Tape
			ref   *flatTape
		}{{tapes, ref}, {dsts, refDst}} {
			ref := side.ref
			for i, tp := range side.tapes {
				cfg := configs[i].Name + " " + tp.Name()
				if tp.Pos() != ref.pos || tp.Dir() != ref.dir {
					t.Fatalf("op %d (%s) on %s: head (%d,%v) diverges from the reference (%d,%v)",
						op, name, cfg, tp.Pos(), tp.Dir(), ref.pos, ref.dir)
				}
				if tp.Stats() != ref.stats() {
					t.Fatalf("op %d (%s) on %s: stats %+v diverge from the reference %+v",
						op, name, cfg, tp.Stats(), ref.stats())
				}
				if !contents {
					continue
				}
				if got := tp.Contents(); !bytes.Equal(got, ref.cells) {
					t.Fatalf("op %d (%s) on %s: contents (%d cells) diverge from the reference (%d cells)",
						op, name, cfg, len(got), len(ref.cells))
				}
			}
		}
	}

	op := 0
	for ; pos < len(ops) && op < 512; op++ {
		opc := arg()
		name := ""
		var (
			want      []byte
			wantFound bool
			wantErr   error
		)
		each := func(n string, f func(tp *Tape) ([]byte, bool, error)) {
			t.Helper()
			name = n
			for i, tp := range tapes {
				data, found, err := f(tp)
				if !bytes.Equal(data, want) || found != wantFound || !sameErr(err, wantErr) {
					t.Fatalf("op %d (%s) on %s: result (%q,%v,%v) diverges from the reference (%q,%v,%v)",
						op, n, configs[i].Name, data, found, err, want, wantFound, wantErr)
				}
			}
		}
		switch opc % 18 {
		case 0:
			want = []byte{ref.read()}
			each("Read", func(tp *Tape) ([]byte, bool, error) {
				return []byte{tp.Read()}, false, nil
			})
		case 1:
			b := arg()
			ref.write(b)
			each("Write", func(tp *Tape) ([]byte, bool, error) {
				tp.Write(b)
				return nil, false, nil
			})
		case 2:
			d := Forward
			if arg()%2 == 0 {
				d = Backward
			}
			wantErr = ref.move(d)
			each("Move", func(tp *Tape) ([]byte, bool, error) {
				return nil, false, tp.Move(d)
			})
		case 3:
			n := int(arg())
			want, _, wantErr = ref.readForward(n, never)
			each("ReadBlock", func(tp *Tape) ([]byte, bool, error) {
				data, err := tp.ReadBlock(n)
				return data, false, err
			})
		case 4:
			// Exponential sizes reach past the 64 KiB window, so block
			// writes cross and span window boundaries.
			n := (1 << (int(arg()) % 18)) + int(arg())
			if ref.pos+n > maxLockstepCells {
				n %= 4096
			}
			data := genBlock(arg(), n)
			wantErr = ref.writeBlock(data)
			each("WriteBlock", func(tp *Tape) ([]byte, bool, error) {
				return nil, false, tp.WriteBlock(data)
			})
		case 5:
			n := int(arg())
			want, wantErr = ref.readBackward(n)
			each("ReadBlockBackward", func(tp *Tape) ([]byte, bool, error) {
				data, err := tp.ReadBlockBackward(n)
				return data, false, err
			})
		case 6:
			n := int(arg())
			wantErr = ref.moveBackward(n)
			each("MoveBackwardN", func(tp *Tape) ([]byte, bool, error) {
				return nil, false, tp.MoveBackwardN(n)
			})
		case 7:
			wantErr = ref.moveBackward(ref.pos)
			each("Rewind", func(tp *Tape) ([]byte, bool, error) {
				return nil, false, tp.Rewind()
			})
		case 8:
			wantErr = ref.seekEnd()
			each("SeekEnd", func(tp *Tape) ([]byte, bool, error) {
				return nil, false, tp.SeekEnd()
			})
		case 9:
			want, _, wantErr = ref.readForward(ref.rest(), never)
			each("ScanBytes", func(tp *Tape) ([]byte, bool, error) {
				data, err := tp.ScanBytes()
				return data, false, err
			})
		case 10:
			delim := arg()
			want, wantFound, wantErr = ref.readForward(ref.rest(), func(b byte) bool { return b == delim })
			each("ScanUntil", func(tp *Tape) ([]byte, bool, error) {
				return tp.ScanUntil(delim, bufOf[tp])
			})
		case 11:
			ref.cells = ref.cells[:min(ref.pos, len(ref.cells))]
			each("Truncate", func(tp *Tape) ([]byte, bool, error) {
				tp.Truncate()
				return nil, false, nil
			})
		case 12:
			ref.cells, ref.pos = nil, 0
			each("Reset", func(tp *Tape) ([]byte, bool, error) {
				tp.Reset()
				return nil, false, nil
			})
		case 13:
			data := genBlock(arg(), int(arg()))
			ref.cells, ref.pos, ref.dir = bytes.Clone(data), 0, Forward
			each("Replace", func(tp *Tape) ([]byte, bool, error) {
				tp.Replace(data)
				return nil, false, nil
			})
		case 14:
			budget := int(arg())%8 - 1
			ref.budget = budget
			each("SetBudget", func(tp *Tape) ([]byte, bool, error) {
				tp.SetBudget(budget)
				return nil, false, nil
			})
		case 15:
			n := (1 << (int(arg()) % 18)) + int(arg())
			if ref.pos+n > maxLockstepCells {
				n %= 4096
			}
			want, _, wantErr = ref.readForward(n, never)
			each("ReadBlockBig", func(tp *Tape) ([]byte, bool, error) {
				data, err := tp.ReadBlock(n)
				return data, false, err
			})
		case 16:
			delim, count := arg(), int(arg())
			if refDst.pos+ref.rest() > maxLockstepCells {
				break // the destination would grow past the bound
			}
			n, partial, err := ref.copyDelimited(refDst, delim, count)
			want, wantFound, wantErr = []byte{byte(n)}, partial, err
			each("CopyDelimited", func(tp *Tape) ([]byte, bool, error) {
				n, partial, err := tp.CopyDelimited(dstOf[tp], delim, count)
				return []byte{byte(n)}, partial, err
			})
		case 17:
			switch arg() % 3 {
			case 0:
				wantErr = refDst.moveBackward(refDst.pos)
				each("DstRewind", func(tp *Tape) ([]byte, bool, error) {
					return nil, false, dstOf[tp].Rewind()
				})
			case 1:
				refDst.cells = refDst.cells[:min(refDst.pos, len(refDst.cells))]
				each("DstTruncate", func(tp *Tape) ([]byte, bool, error) {
					dstOf[tp].Truncate()
					return nil, false, nil
				})
			case 2:
				budget := int(arg())%4 - 1
				refDst.budget = budget
				each("DstSetBudget", func(tp *Tape) ([]byte, bool, error) {
					dstOf[tp].SetBudget(budget)
					return nil, false, nil
				})
			}
		}
		check(op, name, opc >= 0xF0)
	}
	check(op, "end", true)
}

// TestBackendLockstepSequences pins hand-written corner sequences —
// the same ones seeding the fuzz corpus — so the conformance driver
// runs in every plain `go test`, not only under -fuzz.
func TestBackendLockstepSequences(t *testing.T) {
	for name, ops := range lockstepCorpus() {
		t.Run(name, func(t *testing.T) {
			runBackendLockstep(t, ops)
		})
	}
}

// lockstepCorpus is the seed corpus of the conformance driver: the
// block-boundary, empty-tape, truncate-regrow and left-end corners.
func lockstepCorpus() map[string][]byte {
	return map[string][]byte{
		"empty-tape": {
			0,    // Read on the empty tape
			9,    // ScanBytes
			7,    // Rewind
			2, 0, // Move backward: ErrLeftEnd
			5, 3, // ReadBlockBackward at cell 0
			11, // Truncate
			12, // Reset
		},
		"page-boundary": {
			4, 17, 3, 42, // WriteBlock of 2^17+3 cells: crosses the 64 KiB window twice
			7,         // Rewind
			15, 17, 5, // big ReadBlock back across the pages
			7,       // Rewind
			10, '#', // ScanUntil with no delimiter: sweep to the end
		},
		"copy-delimited": {
			4, 17, 3, 42, // WriteBlock of 2^17+3 cells, a '#' every 256
			7,          // Rewind
			16, '#', 3, // CopyDelimited of 3 items
			17, 0, // DstRewind: the next copy turns the destination
			16, '#', 255, // 255 items: the copy crosses the window boundary
			10, '#', // ScanUntil with the reused buffer
			16, 0, 255, // Blank as the delimiter: copy on to the end, an unterminated tail last
			17, 1, // DstTruncate at the end
			7, 9, // Rewind, ScanBytes
		},
		"scan-straddle": {
			4, 17, 3, 42, // WriteBlock of 2^17+3 cells, a Blank every 256
			7,          // Rewind
			16, 0, 255, // 255 items delimited by Blank
			16, 0, 1, // one more: the head stops 5 cells before the window boundary
			10, 0, // ScanUntil: the item straddles the boundary
			10, 0, // and the next one lies in the second window
		},
		"copy-refused": {
			4, 4, 0, 35, // WriteBlock of 16 cells, '#' first
			7,     // Rewind: the source now moves backward
			14, 1, // SetBudget 0
			16, '#', 2, // CopyDelimited: the source's turn is refused
			14, 0, // SetBudget unlimited
			16, '#', 1, // one item
			17, 2, 2, // DstSetBudget 1
			17, 0, // DstRewind: spends the destination's reversal
			16, '#', 2, // the destination's turn is refused after the first read
		},
		"truncate-regrow": {
			4, 10, 0, 9, // WriteBlock of 1 KiB
			6, 200, // MoveBackwardN into the middle
			11,          // Truncate: drop the tail
			4, 12, 0, 7, // re-grow over the dropped range: must read Blank
			7, // Rewind
			9, // ScanBytes
		},
		"truncate-gap": {
			4, 10, 0, 9, // WriteBlock of 1 KiB
			7,      // Rewind: the turn flushes the window
			9,      // ScanBytes through the window
			6, 200, // MoveBackwardN into the middle
			11,     // Truncate below the backend's length
			3, 100, // ReadBlock past the end: the head moves, nothing materializes
			1, 'x', // Write after a gap of truncated cells: they must read Blank
			6, 150, // MoveBackwardN
			3, 200, // ReadBlock across the gap, through the window
		},
		"truncate-dirty-tail": {
			3, 10, // ReadBlock past the end of the empty tape
			6, 1, // MoveBackwardN: the head now moves backward
			1, 'a', // Write: a window write with no turn to flush it
			6, 5, // MoveBackwardN, no turn
			11,    // Truncate above the backend's length: the write dies in the window
			3, 10, // ReadBlock past the end
			1, 'b', // Write after the gap
			6, 10, // MoveBackwardN
			3, 10, // ReadBlock across the gap, through the window
		},
		"fill-after-partial-page": {
			4, 16, 255, 3, // WriteBlock of one page and 255 cells
			7,      // Rewind
			9,      // ScanBytes: fills page 0, then the partial page 1
			3, 200, // ReadBlock past the end
			1, 'x', // Write after the gap, inside the partial page's window
			6, 250, // MoveBackwardN
			3, 255, // ReadBlock across the gap, through the window
		},
		"spill-crossing": {
			4, 6, 0, 1, // WriteBlock of 64+ cells: crosses SpillThreshold 64
			7,    // Rewind
			9,    // ScanBytes
			1, 9, // Write mid-tape
			12,         // Reset after spilling
			4, 3, 0, 2, // small regrow on the spilled backend
			7, 9,
		},
		"budget-refusal": {
			4, 4, 0, 5, // WriteBlock of 16+ cells
			14, 1, // SetBudget 0
			7,     // Rewind: refused, ErrBudget
			9,     // ScanBytes: fine, still forward
			14, 2, // SetBudget 1
			7,    // Rewind: allowed now
			6, 9, // MoveBackwardN while already backward
			9, // ScanBytes: refused again (budget 1 spent)
		},
	}
}

// FuzzTapeBackend replays fuzzer-generated operation sequences on every
// backend in lockstep — the randomized arm of the conformance suite.
func FuzzTapeBackend(f *testing.F) {
	for _, ops := range lockstepCorpus() {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runBackendLockstep(t, ops)
	})
}

// Options.Validate rejects the combinations that would otherwise lie
// silently — a threshold with nowhere to spill to, a negative
// threshold — and accepts every configuration the conformance table
// actually runs.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"file", Options{Storage: File}, true},
		{"file with threshold", Options{Storage: File, SpillThreshold: 1}, true},
		{"negative threshold", Options{Storage: File, SpillThreshold: -1}, false},
		{"negative threshold on mem", Options{SpillThreshold: -5}, false},
		{"threshold on mem", Options{SpillThreshold: 64}, false},
		{"threshold on explicit mem", Options{Storage: Mem, SpillThreshold: 1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opts.Validate()
			if c.ok && err != nil {
				t.Fatalf("Validate(%+v) = %v, want nil", c.opts, err)
			}
			if !c.ok && err == nil {
				t.Fatalf("Validate(%+v) = nil, want error", c.opts)
			}
		})
	}
}

// NewWith panics on options Validate rejects: by construction time an
// invalid combination is a programming error, not a user mistake, and
// silently dropping the threshold would hide it.
func TestNewWithPanicsOnInvalidOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWith accepted a SpillThreshold on Mem storage")
		}
	}()
	NewWith("bad", Options{SpillThreshold: 64})
}

// Cell, SetCell and IndexByte, which the Tape never calls, agree with
// ReadAt and WriteAt on every backend, across a page boundary and past
// the last occurrence of the delimiter.
func TestBackendCellMethods(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		be := NewBackend(o)
		defer be.Close()
		n := winSize + 100
		be.Grow(n)
		be.WriteAt(pattern(1, n), 0)
		be.SetCell(winSize-1, '#')
		be.SetCell(winSize+3, '#')
		if c := be.Cell(winSize + 3); c != '#' {
			t.Fatalf("Cell(%d) = %q after SetCell", winSize+3, c)
		}
		got := make([]byte, n)
		be.ReadAt(got, 0)
		want := pattern(1, n)
		want[winSize-1], want[winSize+3] = '#', '#'
		if !bytes.Equal(got, want) {
			t.Fatal("ReadAt disagrees with SetCell")
		}
		for _, c := range []struct{ off, want int }{
			{0, winSize - 1}, {winSize - 1, winSize - 1}, {winSize, winSize + 3}, {winSize + 4, -1},
		} {
			if i := be.IndexByte('#', c.off); i != c.want {
				t.Errorf("IndexByte('#', %d) = %d, want %d", c.off, i, c.want)
			}
		}
	})
}
