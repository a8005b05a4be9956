package tape

// window_test.go pins the tape window and the page pool on every
// backend: items and blocks cross 64 KiB window boundaries intact, a
// window never outlives the cells it was filled from, and a page one
// tape frees reads Blank in the next tape that takes it.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// pattern returns n non-separator cells derived from seed.
func pattern(seed, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = 'a' + byte((seed+i*7)%26)
	}
	return out
}

// assertBlankPages takes a fresh tape, materializes n blank cells on
// it, and requires every one of them to read Blank: pages the pool
// hands out must come back zeroed. Callers pass more cells than the
// tapes before them freed, so the fresh tape drains the pool.
func assertBlankPages(t *testing.T, o Options, n int) {
	t.Helper()
	tp := NewWith("fresh", o)
	defer tp.Close()
	if _, err := tp.ReadBlock(n - 1); err != nil {
		t.Fatal(err)
	}
	tp.Write('!')
	got := tp.Contents()
	if i := firstNonBlank(got[:n-1]); i >= 0 {
		t.Fatalf("a fresh tape reads %q at cell %d: a pooled page came back dirty", got[i], i)
	}
}

func firstNonBlank(cells []byte) int {
	for i, c := range cells {
		if c != Blank {
			return i
		}
	}
	return -1
}

func assertContents(t *testing.T, tp *Tape, want []byte, when string) {
	t.Helper()
	if got := tp.Contents(); !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: contents (%d cells) differ from want (%d cells) first at cell %d", when, len(got), len(want), i)
	}
}

// Items and blocks that straddle window boundaries, and an item longer
// than two windows, read back exactly as written, and item copies stop
// on a delimiter next to a window boundary.
func TestItemsStraddleWindows(t *testing.T) {
	forEachBackend(t, func(t *testing.T, o Options) {
		lens := []int{winSize - 3, 2, 5, 2*winSize + 9, winSize, 1, winSize - 1}
		tp := NewWith("items", o)
		defer tp.Close()
		var want []byte
		for i, n := range lens {
			item := append(pattern(i, n), '#')
			if err := tp.WriteBlock(item); err != nil {
				t.Fatal(err)
			}
			want = append(want, item...)
		}
		assertContents(t, tp, want, "after writing")

		if err := tp.Rewind(); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for i, n := range lens {
			got, found, err := tp.ScanUntil('#', &buf)
			if err != nil || !found {
				t.Fatalf("item %d: found=%v err=%v", i, found, err)
			}
			if !bytes.Equal(got, append(pattern(i, n), '#')) {
				t.Fatalf("item %d (%d cells) read back wrong", i, n)
			}
		}

		// Blocks across the first boundary, forward and backward.
		if err := tp.Rewind(); err != nil {
			t.Fatal(err)
		}
		if _, err := tp.ReadBlock(winSize - 2); err != nil {
			t.Fatal(err)
		}
		got, err := tp.ReadBlock(5)
		if err != nil || !bytes.Equal(got, want[winSize-2:winSize+3]) {
			t.Fatalf("ReadBlock across the boundary = %q, %v", got, err)
		}
		got, err = tp.ReadBlockBackward(6)
		rev := bytes.Clone(want[winSize-3 : winSize+3])
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		if err != nil || !bytes.Equal(got, rev) {
			t.Fatalf("ReadBlockBackward across the boundary = %q, %v", got, err)
		}

		// Single cells written one at a time across a boundary.
		if _, err := tp.ReadBlock(2*winSize - 2 - tp.Pos()); err != nil {
			t.Fatal(err)
		}
		for i := range 4 {
			if err := tp.WriteMove('0'+byte(i), Forward); err != nil {
				t.Fatal(err)
			}
			want[2*winSize-2+i] = '0' + byte(i)
		}
		if err := tp.MoveBackwardN(4); err != nil {
			t.Fatal(err)
		}
		for i := range 4 {
			if c, err := tp.ReadMove(Forward); err != nil || c != '0'+byte(i) {
				t.Fatalf("cell %d reads %q, %v", 2*winSize-2+i, c, err)
			}
		}
		assertContents(t, tp, want, "after single-cell writes")

		// CopyDelimited stops exactly on its last item's delimiter, one
		// cell before, at and after a window boundary, and then copies
		// an unterminated tail up to the tape end. The records end at
		// cells winSize-1, winSize and winSize+1; then come one short
		// item and a tail with no delimiter.
		var src []byte
		var ends []int
		for _, n := range []int{winSize - 2, 0, 0, 5} {
			src = append(append(src, pattern(n, n)...), '#')
			ends = append(ends, len(src))
		}
		src = append(src, pattern(9, 7)...)
		for k := 1; k <= 3; k++ {
			in, out := FromBytesWith("in", src, o), NewWith("out", o)
			n, partial, err := in.CopyDelimited(out, '#', k)
			if err != nil || n != k || partial {
				t.Fatalf("count %d: copied (%d, %v, %v)", k, n, partial, err)
			}
			if in.Pos() != ends[k-1] || out.Pos() != ends[k-1] || out.Stats().Writes != int64(ends[k-1]) {
				t.Fatalf("count %d: heads at %d and %d after %d writes, want %d", k, in.Pos(), out.Pos(), out.Stats().Writes, ends[k-1])
			}
			assertContents(t, out, src[:ends[k-1]], fmt.Sprintf("count %d", k))
			n, partial, err = in.CopyDelimited(out, '#', len(src))
			if err != nil || n != len(ends)-k || !partial || !in.AtEnd() {
				t.Fatalf("count %d, then the rest: copied (%d, %v, %v), source at end %v", k, n, partial, err, in.AtEnd())
			}
			assertContents(t, out, src, fmt.Sprintf("count %d, then the rest", k))
			in.Close()
			out.Close()
		}
		// ScanUntil reads the same records, and the tail with found = false.
		in := FromBytesWith("in", src, o)
		defer in.Close()
		prev := 0
		for i, end := range append(ends, len(src)) {
			got, found, err := in.ScanUntil('#', &buf)
			if err != nil || found != (i < len(ends)) || !bytes.Equal(got, src[prev:end]) {
				t.Fatalf("record %d: (%d cells, %v, %v), want cells [%d, %d)", i, len(got), found, err, prev, end)
			}
			prev = end
		}
	})
}

// Every operation that frees or replaces the cells under the window
// drops the window with it: the tape's cells stay right afterwards,
// and pages it freed read Blank in the next tape.
func TestWindowDroppedWithItsPage(t *testing.T) {
	size := 2*winSize + winSize/2 // the window ends up on the third page, dirty
	cases := []struct {
		name string
		op   func(t *testing.T, tp *Tape, data []byte) []byte // returns the contents after op
	}{
		{"Truncate", func(t *testing.T, tp *Tape, data []byte) []byte {
			if err := tp.MoveBackwardN(winSize + 7); err != nil {
				t.Fatal(err)
			}
			tp.Truncate()
			return bytes.Clone(data[:tp.Pos()])
		}},
		{"Reset", func(t *testing.T, tp *Tape, _ []byte) []byte {
			tp.Reset()
			return nil
		}},
		{"Replace", func(t *testing.T, tp *Tape, _ []byte) []byte {
			repl := pattern(3, winSize+11)
			tp.Replace(repl)
			return repl
		}},
	}
	forEachBackend(t, func(t *testing.T, o Options) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				data := pattern(1, size)
				tp := FromBytesWith("drop", data[:winSize/3], o)
				if err := tp.SeekEnd(); err != nil {
					t.Fatal(err)
				}
				if err := tp.WriteBlock(data[winSize/3:]); err != nil {
					t.Fatal(err)
				}
				want := c.op(t, tp, data)
				assertContents(t, tp, want, "after "+c.name)
				// Write through a fresh window, then read it all back.
				if err := tp.SeekEnd(); err != nil {
					t.Fatal(err)
				}
				more := pattern(5, winSize+3)
				if err := tp.WriteBlock(more); err != nil {
					t.Fatal(err)
				}
				assertContents(t, tp, append(want, more...), "writing after "+c.name)
				if err := tp.Close(); err != nil {
					t.Fatal(err)
				}
				assertBlankPages(t, o, 2*size)
			})
		}
		t.Run("Close", func(t *testing.T) {
			tp := FromBytesWith("drop", pattern(2, size), o)
			if err := tp.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tp.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if s := tp.Stats(); s.Size != size {
				t.Fatalf("Stats after Close report Size %d, want %d", s.Size, size)
			}
			assertBlankPages(t, o, 2*size)
		})
	})
}

// A spill migrates the cells out of the RAM pages mid-write and drops
// the window over them; the freed pages read Blank.
func TestSpillDropsWindow(t *testing.T) {
	for _, st := range []Storage{File} {
		t.Run(string(st), func(t *testing.T) {
			o := Options{Storage: st, SpillDir: t.TempDir(), SpillThreshold: winSize + 100}
			data := pattern(4, 3*winSize+17)
			tp := FromBytesWith("spill", data[:winSize+50], o)
			defer tp.Close()
			if tp.StorageKind() != Mem {
				t.Fatalf("tape spilled below its threshold: %v", tp.StorageKind())
			}
			if err := tp.Rewind(); err != nil {
				t.Fatal(err)
			}
			if _, err := tp.ReadBlock(winSize + 10); err != nil { // the window is on page 1
				t.Fatal(err)
			}
			if err := tp.SeekEnd(); err != nil {
				t.Fatal(err)
			}
			if err := tp.WriteBlock(data[winSize+50:]); err != nil {
				t.Fatal(err)
			}
			if tp.StorageKind() != st {
				t.Fatalf("tape did not spill: %v", tp.StorageKind())
			}
			assertContents(t, tp, data, "after the spill")
			assertBlankPages(t, Options{}, 4*winSize)
		})
	}
}

// Tapes on many goroutines share the page pool: each must see only its
// own cells through every grow, truncate, reset and close. CI runs
// this test under -race.
func TestConcurrentTapesSharePagePool(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := Options{}
			if g%2 == 1 {
				o = Options{Storage: File, SpillDir: t.TempDir(), SpillThreshold: winSize}
			}
			for round := range 4 {
				if err := poolRound(o, g*16+round); err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, round, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// poolRound writes, truncates, re-reads, resets and closes one tape.
func poolRound(o Options, seed int) error {
	data := pattern(seed, 2*winSize+seed)
	tp := FromBytesWith("pool", data, o)
	defer tp.Close()
	if got := tp.Contents(); !bytes.Equal(got, data) {
		return fmt.Errorf("contents differ after write")
	}
	if err := tp.SeekEnd(); err != nil {
		return err
	}
	if err := tp.MoveBackwardN(winSize); err != nil {
		return err
	}
	tp.Truncate()
	if err := tp.WriteBlock(data[:winSize/2]); err != nil {
		return err
	}
	want := append(bytes.Clone(data[:winSize+seed]), data[:winSize/2]...)
	if got := tp.Contents(); !bytes.Equal(got, want) {
		return fmt.Errorf("contents differ after truncate and rewrite")
	}
	tp.Reset()
	if _, err := tp.ReadBlock(3 * winSize); err != nil {
		return err
	}
	tp.Write('!')
	if got := tp.Contents(); firstNonBlank(got[:3*winSize]) >= 0 {
		return fmt.Errorf("a reset tape reads non-Blank cells")
	}
	return nil
}
