package algorithms

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"extmem/internal/core"
	"extmem/internal/problems"
)

// loadItems writes the given items onto tape idx of m, head rewound.
func loadItems(t *testing.T, m *core.Machine, idx int, items []string) {
	t.Helper()
	tp := m.Tape(idx)
	for _, it := range items {
		if err := WriteItem(tp, []byte(it)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.Rewind(); err != nil {
		t.Fatal(err)
	}
}

// dumpItems reads all items from tape idx.
func dumpItems(t *testing.T, m *core.Machine, idx int) []string {
	t.Helper()
	tp := m.Tape(idx)
	if err := tp.Rewind(); err != nil {
		t.Fatal(err)
	}
	var out []string
	rd := NewItemReader(tp, m.Mem(), "test.dump")
	for {
		it, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, string(it))
	}
}

// binarySort sorts tape src in place with the 2-way merge engine over
// work tapes auxA and auxB — the balanced tape merge sort of Corollary 7.
func binarySort(m *core.Machine, src, auxA, auxB int) error {
	return Sorter{FanIn: 2}.Sort(m, src, []int{auxA, auxB})
}

func TestMergeSortBasic(t *testing.T) {
	m := core.NewMachine(3, 1)
	loadItems(t, m, 0, []string{"110", "001", "010", "111", "000"})
	if err := binarySort(m, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	got := dumpItems(t, m, 0)
	want := []string{"000", "001", "010", "110", "111"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
}

func TestMergeSortEmptyAndSingle(t *testing.T) {
	m := core.NewMachine(3, 1)
	if err := binarySort(m, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := dumpItems(t, m, 0); len(got) != 0 {
		t.Fatalf("empty sort = %v", got)
	}
	m2 := core.NewMachine(3, 1)
	loadItems(t, m2, 0, []string{"101"})
	if err := binarySort(m2, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := dumpItems(t, m2, 0); len(got) != 1 || got[0] != "101" {
		t.Fatalf("single sort = %v", got)
	}
}

func TestMergeSortDuplicates(t *testing.T) {
	m := core.NewMachine(3, 1)
	loadItems(t, m, 0, []string{"01", "01", "00", "01", "00"})
	if err := binarySort(m, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	got := dumpItems(t, m, 0)
	want := []string{"00", "00", "01", "01", "01"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
}

func TestMergeSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		count := 1 + rng.Intn(200)
		items := make([]string, count)
		for i := range items {
			n := 1 + rng.Intn(8)
			b := make([]byte, n)
			for j := range b {
				b[j] = '0' + byte(rng.Intn(2))
			}
			items[i] = string(b)
		}
		m := core.NewMachine(3, int64(trial))
		loadItems(t, m, 0, items)
		if err := binarySort(m, 0, 1, 2); err != nil {
			t.Fatal(err)
		}
		got := dumpItems(t, m, 0)
		if len(got) != count {
			t.Fatalf("lost items: %d -> %d", count, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] > got[i] {
				t.Fatalf("not sorted at %d: %q > %q", i, got[i-1], got[i])
			}
		}
		// Multiset preserved.
		in := problems.Instance{V: items, W: got}
		if !problems.MultisetEquality(in) {
			t.Fatalf("sort changed the multiset")
		}
	}
}

// Corollary 7 resource shape: reversals grow as O(log m).
func TestMergeSortReversalsLogarithmic(t *testing.T) {
	for _, count := range []int{4, 16, 64, 256, 1024} {
		rng := rand.New(rand.NewSource(int64(count)))
		items := make([]string, count)
		for i := range items {
			b := make([]byte, 8)
			for j := range b {
				b[j] = '0' + byte(rng.Intn(2))
			}
			items[i] = string(b)
		}
		m := core.NewMachine(3, 7)
		loadItems(t, m, 0, items)
		if err := binarySort(m, 0, 1, 2); err != nil {
			t.Fatal(err)
		}
		rev := m.Resources().Reversals
		limit := 10 * (int(math.Log2(float64(count))) + 2)
		if rev > limit {
			t.Fatalf("count=%d: %d reversals > limit %d (not O(log m))", count, rev, limit)
		}
	}
}

func TestMergeSortDistinctTapesRequired(t *testing.T) {
	m := core.NewMachine(3, 1)
	if err := binarySort(m, 0, 0, 1); err == nil {
		t.Fatal("duplicate tape indices accepted")
	}
}

func TestSortToTapeLeavesInputIntact(t *testing.T) {
	m := core.NewMachine(4, 1)
	in := problems.Instance{V: []string{"11", "00", "10"}}
	var enc []byte
	for _, v := range in.V {
		enc = append(enc, v...)
		enc = append(enc, problems.Separator)
	}
	m.SetInput(enc)
	if err := (Sorter{FanIn: 2}).SortToTape(m, 1, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	got := dumpItems(t, m, 1)
	want := []string{"00", "10", "11"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
	if string(m.Tape(0).Contents()) != string(enc) {
		t.Fatal("input tape modified")
	}
}

func TestSortLasVegas(t *testing.T) {
	m := core.NewMachine(4, 1)
	m.SetInput([]byte("11#00#10#01#"))
	res, err := SortLasVegas(m, 1, 2, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Accept {
		t.Fatalf("verdict = %v with generous budget", res.Verdict)
	}
	got := dumpItems(t, m, 1)
	if strings.Join(got, ",") != "00,01,10,11" {
		t.Fatalf("sorted = %v", got)
	}

	m2 := core.NewMachine(4, 1)
	m2.SetInput([]byte("11#00#10#01#"))
	res2, err := SortLasVegas(m2, 1, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != core.DontKnow {
		t.Fatalf("verdict = %v with scan budget 2, want don't know", res2.Verdict)
	}
}

func TestCountItems(t *testing.T) {
	m := core.NewMachine(1, 1)
	m.SetInput([]byte("0#1#00#"))
	n, err := CountItems(m.Tape(0), m.Mem(), "c")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("CountItems = %d, want 3", n)
	}
}

func TestCopyItemsPartial(t *testing.T) {
	m := core.NewMachine(2, 1)
	m.SetInput([]byte("0#1#"))
	n, err := NewItemReader(m.Tape(0), m.Mem(), "x").CopyItems(m.Tape(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("CopyItems = %d, want 2", n)
	}
	if string(m.Tape(1).Contents()) != "0#1#" {
		t.Fatalf("copied = %q", m.Tape(1).Contents())
	}
}

func TestReadItemUnterminated(t *testing.T) {
	m := core.NewMachine(1, 1)
	m.SetInput([]byte("01"))
	if _, _, err := NewItemReader(m.Tape(0), m.Mem(), "x").Next(); err == nil {
		t.Fatal("unterminated item accepted")
	}
}

func TestReadItemEmptyValue(t *testing.T) {
	m := core.NewMachine(1, 1)
	m.SetInput([]byte("#"))
	rd := NewItemReader(m.Tape(0), m.Mem(), "x")
	it, ok, err := rd.Next()
	if err != nil || !ok || len(it) != 0 {
		t.Fatalf("Next = (%q, %v, %v), want empty item", it, ok, err)
	}
	if rec := string(rd.Record()); rec != "#" {
		t.Fatalf("Record = %q, want %q", rec, "#")
	}
}
