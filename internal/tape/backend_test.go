package tape

// backend_test.go is the backend-conformance differential harness: the
// forEachBackend table that re-runs every tape property on every
// storage backend, and the lockstep driver (shared with
// FuzzTapeBackend) that applies one operation sequence to a tape per
// backend and requires identical observable behavior — contents, head,
// errors and every Stats counter — after every single operation. This
// is the enforcement of the backend contract: the backend may move the
// bytes' home, never a count.

import (
	"bytes"
	"testing"
)

// backendConfigs are the storage configurations every conformance test
// runs over: the three backends plus a spill configuration that starts
// in RAM and migrates to the file backend mid-sequence.
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
		{"mmap", Options{Storage: Mmap, SpillDir: t.TempDir()}},
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

// runBackendLockstep decodes ops as an operation sequence and applies
// it, one operation at a time, to a tape on every backend, failing on
// the first divergence in returned bytes, error class, head position,
// direction, contents or Stats.
func runBackendLockstep(t *testing.T, ops []byte) {
	t.Helper()
	configs := backendConfigs(t)
	tapes := make([]*Tape, len(configs))
	for i, c := range configs {
		tapes[i] = NewWith("lockstep", c.Opts)
		defer tapes[i].Close()
	}
	ref := tapes[0] // the mem backend is the reference

	pos := 0
	arg := func() byte {
		if pos >= len(ops) {
			return 0
		}
		b := ops[pos]
		pos++
		return b
	}
	check := func(op int, name string) {
		t.Helper()
		want := ref.Contents()
		for i, tp := range tapes[1:] {
			cfg := configs[i+1].Name
			if tp.Pos() != ref.Pos() || tp.Dir() != ref.Dir() {
				t.Fatalf("op %d (%s) on %s: head (%d,%v) diverges from mem (%d,%v)",
					op, name, cfg, tp.Pos(), tp.Dir(), ref.Pos(), ref.Dir())
			}
			if tp.Stats() != ref.Stats() {
				t.Fatalf("op %d (%s) on %s: stats %+v diverge from mem %+v",
					op, name, cfg, tp.Stats(), ref.Stats())
			}
			if got := tp.Contents(); !bytes.Equal(got, want) {
				t.Fatalf("op %d (%s) on %s: contents (%d cells) diverge from mem (%d cells)",
					op, name, cfg, len(got), len(want))
			}
		}
	}

	for op := 0; pos < len(ops) && op < 512; op++ {
		opc := arg()
		name := ""
		var (
			firstData  []byte
			firstFound bool
			firstErr   error
		)
		each := func(n string, f func(tp *Tape) ([]byte, bool, error)) {
			t.Helper()
			name = n
			for i, tp := range tapes {
				data, found, err := f(tp)
				if i == 0 {
					firstData, firstFound, firstErr = data, found, err
					continue
				}
				if !bytes.Equal(data, firstData) || found != firstFound || !sameErr(err, firstErr) {
					t.Fatalf("op %d (%s) on %s: result (%q,%v,%v) diverges from mem (%q,%v,%v)",
						op, n, configs[i].Name, data, found, err, firstData, firstFound, firstErr)
				}
			}
		}
		switch opc % 16 {
		case 0:
			each("Read", func(tp *Tape) ([]byte, bool, error) {
				return []byte{tp.Read()}, false, nil
			})
		case 1:
			b := arg()
			each("Write", func(tp *Tape) ([]byte, bool, error) {
				tp.Write(b)
				return nil, false, nil
			})
		case 2:
			d := Forward
			if arg()%2 == 0 {
				d = Backward
			}
			each("Move", func(tp *Tape) ([]byte, bool, error) {
				return nil, false, tp.Move(d)
			})
		case 3:
			n := int(arg())
			each("ReadBlock", func(tp *Tape) ([]byte, bool, error) {
				data, err := tp.ReadBlock(n)
				return data, false, err
			})
		case 4:
			// Exponential sizes reach past the file backend's page, so
			// block writes exercise both the buffered and bypass paths.
			n := (1 << (int(arg()) % 18)) + int(arg())
			if ref.Pos()+n > maxLockstepCells {
				n %= 4096
			}
			data := genBlock(arg(), n)
			each("WriteBlock", func(tp *Tape) ([]byte, bool, error) {
				return nil, false, tp.WriteBlock(data)
			})
		case 5:
			n := int(arg())
			each("ReadBlockBackward", func(tp *Tape) ([]byte, bool, error) {
				data, err := tp.ReadBlockBackward(n)
				return data, false, err
			})
		case 6:
			n := int(arg())
			each("MoveBackwardN", func(tp *Tape) ([]byte, bool, error) {
				return nil, false, tp.MoveBackwardN(n)
			})
		case 7:
			each("Rewind", func(tp *Tape) ([]byte, bool, error) {
				return nil, false, tp.Rewind()
			})
		case 8:
			each("SeekEnd", func(tp *Tape) ([]byte, bool, error) {
				return nil, false, tp.SeekEnd()
			})
		case 9:
			each("ScanBytes", func(tp *Tape) ([]byte, bool, error) {
				data, err := tp.ScanBytes()
				return data, false, err
			})
		case 10:
			delim := arg()
			each("ScanUntilAppend", func(tp *Tape) ([]byte, bool, error) {
				return tp.ScanUntilAppend(delim, nil)
			})
		case 11:
			each("Truncate", func(tp *Tape) ([]byte, bool, error) {
				tp.Truncate()
				return nil, false, nil
			})
		case 12:
			each("Reset", func(tp *Tape) ([]byte, bool, error) {
				tp.Reset()
				return nil, false, nil
			})
		case 13:
			data := genBlock(arg(), int(arg()))
			each("Replace", func(tp *Tape) ([]byte, bool, error) {
				tp.Replace(data)
				return nil, false, nil
			})
		case 14:
			budget := int(arg())%8 - 1
			each("SetBudget", func(tp *Tape) ([]byte, bool, error) {
				tp.SetBudget(budget)
				return nil, false, nil
			})
		case 15:
			n := (1 << (int(arg()) % 18)) + int(arg())
			if ref.Pos()+n > maxLockstepCells {
				n %= 4096
			}
			each("ReadBlockBig", func(tp *Tape) ([]byte, bool, error) {
				data, err := tp.ReadBlock(n)
				return data, false, err
			})
		}
		check(op, name)
	}
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
			4, 17, 3, 42, // WriteBlock of 2^17+3 cells: crosses filePage twice
			7,         // Rewind
			15, 17, 5, // big ReadBlock back across the pages
			7,       // Rewind
			10, '#', // ScanUntilAppend with no delimiter: sweep to the end
		},
		"truncate-regrow": {
			4, 10, 0, 9, // WriteBlock of 1 KiB
			6, 200, // MoveBackwardN into the middle
			11,          // Truncate: drop the tail
			4, 12, 0, 7, // re-grow over the dropped range: must read Blank
			7, // Rewind
			9, // ScanBytes
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
		{"mmap with threshold", Options{Storage: Mmap, SpillThreshold: 64}, true},
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
