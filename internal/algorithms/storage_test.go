package algorithms

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/tape"
)

// TestSorterIdenticalAcrossStorageBackends runs the k-way merge-sort
// engine on machines whose tapes live on every storage backend (plus a
// spill configuration that migrates mid-sort) and requires the sorted
// bytes and the full resource report — scans, memory peak, steps — to
// be identical everywhere: the backend may move the bytes' home, never
// a count. SortToTape must leave the input tape intact on each.
func TestSorterIdenticalAcrossStorageBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := problems.GenMultisetYes(256, 16, rng) // 512 items of 16 bits
	enc := in.Encode()

	configs := []struct {
		name string
		o    tape.Options
	}{
		{"mem", tape.Options{}},
		{"file", tape.Options{Storage: tape.File, SpillDir: t.TempDir()}},
		{"file-spill", tape.Options{Storage: tape.File, SpillDir: t.TempDir(), SpillThreshold: 512}},
	}
	for _, engine := range []Sorter{
		{FanIn: 2},                                  // 2-way merge of single-item runs
		{FanIn: 4, RunMemoryBits: 1024},             // formation + wide merge
		{FanIn: 3, RunMemoryBits: 256, Dedup: true}, // set semantics
	} {
		var refOut []byte
		var refRes core.Resources
		for i, c := range configs {
			m := core.NewMachineOpts(6, 1, c.o)
			m.SetInput(enc)
			if err := engine.SortToTape(m, 1, WorkTapes(m, 1)); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			out := m.Tape(1).Contents()
			if !bytes.Equal(m.Tape(0).Contents(), enc) {
				t.Errorf("engine %+v on %s: input tape modified", engine, c.name)
			}
			res := m.Resources()
			if err := m.Close(); err != nil {
				t.Fatalf("%s: Close: %v", c.name, err)
			}
			if i == 0 {
				refOut, refRes = out, res
				continue
			}
			if !bytes.Equal(out, refOut) {
				t.Errorf("engine %+v on %s: sorted output diverges from mem", engine, c.name)
			}
			if !reflect.DeepEqual(res, refRes) {
				t.Errorf("engine %+v on %s: resources %+v diverge from mem %+v", engine, c.name, res, refRes)
			}
		}
	}
}
