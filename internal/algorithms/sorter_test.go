package algorithms

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"extmem/internal/core"
	"extmem/internal/tape"
)

// randomItems builds count random 0-1 items of length 0..maxLen.
func randomItems(count, maxLen int, rng *rand.Rand) []string {
	items := make([]string, count)
	for i := range items {
		b := make([]byte, rng.Intn(maxLen+1))
		for j := range b {
			b[j] = '0' + byte(rng.Intn(2))
		}
		items[i] = string(b)
	}
	return items
}

func uniqSorted(items []string) []string {
	s := append([]string(nil), items...)
	sort.Strings(s)
	out := s[:0]
	for i, it := range s {
		if i == 0 || it != s[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// The k-way engine must agree with the stdlib sort for every fan-in
// (the 2-way merge included), run-formation budget and dedup setting,
// on random item multisets including empty items and duplicates.
func TestSorterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var inputs [][]string
	for trial := 0; trial < 60; trial++ {
		inputs = append(inputs, randomItems(rng.Intn(200), 8, rng))
	}
	// Items are views valid until the reader's next read, so whatever
	// the engine keeps must be copied out: variable-length items (up to 40
	// symbols) drawn from a pool of 12, so duplicates are heavy and
	// every run of the 256- and 4096-bit budgets holds several items.
	pool := randomItems(12, 40, rand.New(rand.NewSource(16)))
	dup := make([]string, 300)
	for i := range dup {
		dup[i] = pool[rng.Intn(len(pool))]
	}
	inputs = append(inputs, dup)
	for _, items := range inputs {

		want := append([]string(nil), items...)
		sort.Strings(want)
		wantDedup := uniqSorted(items)
		for _, k := range []int{2, 3, 4, 8} {
			for _, mem := range []int64{0, 37, 256, 4096} {
				for _, dedup := range []bool{false, true} {
					m := core.NewMachine(k+1, 1)
					loadItems(t, m, 0, items)
					s := Sorter{FanIn: k, RunMemoryBits: mem, Dedup: dedup}
					work := make([]int, k)
					for i := range work {
						work[i] = i + 1
					}
					if err := s.Sort(m, 0, work); err != nil {
						t.Fatalf("k=%d mem=%d dedup=%v: %v", k, mem, dedup, err)
					}
					got := dumpItems(t, m, 0)
					ref := want
					if dedup {
						ref = wantDedup
					}
					if strings.Join(got, ",") != strings.Join(ref, ",") {
						t.Fatalf("k=%d mem=%d dedup=%v: sorted = %v, want %v (input %v)",
							k, mem, dedup, got, ref, items)
					}
				}
			}
		}
	}
}

// Accounting invariant of the engine: the merge-pass count is at most
// ⌈log_k⌈m/runLen⌉⌉ + 1 and every pass costs O(k) reversals, so total
// reversals stay below (4k+6)·(passes+1).
func TestSorterPassCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, count := range []int{5, 32, 200, 1000} {
		items := make([]string, count)
		for i := range items {
			b := make([]byte, 8)
			for j := range b {
				b[j] = '0' + byte(rng.Intn(2))
			}
			items[i] = string(b)
		}
		for _, k := range []int{2, 4, 8} {
			for _, mem := range []int64{0, 128, 1024} {
				m := core.NewMachine(k+1, 1)
				loadItems(t, m, 0, items)
				work := make([]int, k)
				for i := range work {
					work[i] = i + 1
				}
				if err := (Sorter{FanIn: k, RunMemoryBits: mem}).Sort(m, 0, work); err != nil {
					t.Fatal(err)
				}
				runLen := 1
				if mem > 0 {
					runLen = int(mem) / 8 // items are 8 symbols long
				}
				runs := (count + runLen - 1) / runLen
				passes := 0
				for r := runs; r > 1; r = (r + k - 1) / k {
					passes++
				}
				wantMax := passes
				if ideal := int(math.Ceil(math.Log(float64(runs)) / math.Log(float64(k)))); runs > 1 && wantMax > ideal+1 {
					t.Fatalf("count=%d k=%d mem=%d: %d passes > ⌈log_k runs⌉+1 = %d", count, k, mem, wantMax, ideal+1)
				}
				rev := m.Resources().Reversals
				limit := (4*k + 6) * (passes + 1)
				if rev > limit {
					t.Fatalf("count=%d k=%d mem=%d: %d reversals > (4k+6)·(passes+1) = %d (passes=%d)",
						count, k, mem, rev, limit, passes)
				}
			}
		}
	}
}

// The acceptance criterion of the r-vs-t axis: on a fixed input with
// fixed run-formation memory, the measured reversal count strictly
// decreases as the fan-in goes 2 → 4 → 8.
func TestSorterReversalsDecreaseWithFanIn(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	items := make([]string, 64)
	for i := range items {
		b := make([]byte, 16)
		for j := range b {
			b[j] = '0' + byte(rng.Intn(2))
		}
		items[i] = string(b)
	}
	// 16-symbol items and a 128-unit budget give 8-item runs: 8 initial
	// runs, so fan-in 8 sorts in one merge pass, fan-in 4 in two,
	// fan-in 2 in three.
	revs := map[int]int{}
	for _, k := range []int{2, 4, 8} {
		m := core.NewMachine(10, 1)
		loadItems(t, m, 0, items)
		if err := (Sorter{FanIn: k, RunMemoryBits: 128}).Sort(m, 0, []int{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			t.Fatal(err)
		}
		got := dumpItems(t, m, 0)
		want := append([]string(nil), items...)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("k=%d: not sorted", k)
		}
		revs[k] = m.Resources().Reversals
	}
	if !(revs[2] > revs[4] && revs[4] > revs[8]) {
		t.Fatalf("reversals did not strictly decrease with fan-in: k=2: %d, k=4: %d, k=8: %d",
			revs[2], revs[4], revs[8])
	}
}

// Run formation must charge the buffer to the meter: the sorted
// output is identical, but the reported peak memory reflects the
// budget actually used, and nothing stays charged afterwards.
func TestSorterChargesRunBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	items := randomItems(300, 6, rng)
	totalBits := int64(0)
	for _, it := range items {
		totalBits += int64(len(it))
	}
	for _, mem := range []int64{0, 256, 2048} {
		m := core.NewMachine(3, 1)
		loadItems(t, m, 0, items)
		if err := (Sorter{FanIn: 2, RunMemoryBits: mem}).Sort(m, 0, []int{1, 2}); err != nil {
			t.Fatal(err)
		}
		peak := m.Resources().PeakMemoryBits
		want := min(mem, totalBits) // the buffer can't outgrow the input
		if mem > 0 && (peak < want/2 || peak > want+64) {
			t.Fatalf("mem=%d: peak %d bits not near the charged run buffer (want ≈ %d)", mem, peak, want)
		}
		if cur := m.Mem().Current(); cur != 0 {
			t.Fatalf("mem=%d: %d bits left charged (regions %v)", mem, cur, m.Mem().Regions())
		}
	}
}

// A memory budget below the run-formation target must surface as a
// budget error (fail closed), never a silent wrong sort.
func TestSorterRespectsMeterBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	items := randomItems(50, 6, rng)
	m := core.NewMachine(3, 1)
	loadItems(t, m, 0, items)
	m.Mem().SetBudget(16)
	err := (Sorter{FanIn: 2, RunMemoryBits: 4096}).Sort(m, 0, []int{1, 2})
	if err == nil {
		t.Fatal("meter budget exhaustion did not error")
	}
}

func TestSorterTapeValidation(t *testing.T) {
	m := core.NewMachine(4, 1)
	if err := (Sorter{FanIn: 2}).Sort(m, 0, []int{1}); err == nil {
		t.Fatal("accepted fewer work tapes than the fan-in")
	}
	if err := (Sorter{FanIn: 2}).Sort(m, 0, []int{0, 1}); err == nil {
		t.Fatal("accepted src as a work tape")
	}
	if err := (Sorter{FanIn: 2}).Sort(m, 0, []int{1, 1}); err == nil {
		t.Fatal("accepted duplicate work tapes")
	}
	if err := (Sorter{FanIn: 3}).SortToTape(m, 0, []int{1, 2, 3}); err == nil {
		t.Fatal("accepted the input tape as the sort destination")
	}
}

func TestWorkTapes(t *testing.T) {
	m := core.NewMachine(6, 1)
	if got, want := fmt.Sprint(WorkTapes(m, 1)), "[2 3 4 5]"; got != want {
		t.Fatalf("WorkTapes(m, 1) = %v, want %v", got, want)
	}
	if got, want := fmt.Sprint(WorkTapes(m, 3)), "[1 2 4 5]"; got != want {
		t.Fatalf("WorkTapes(m, 3) = %v, want %v", got, want)
	}
}

// Dedup via the engine on an all-duplicates input, and across run
// boundaries (duplicates that only meet in the final merge pass).
func TestSorterDedupAcrossRuns(t *testing.T) {
	items := []string{"01", "01", "01", "01", "01", "01", "01", "01"}
	m := core.NewMachine(3, 1)
	loadItems(t, m, 0, items)
	// A 2-symbol budget forces single-item runs, so every duplicate
	// pair meets only during merges.
	if err := (Sorter{FanIn: 2, RunMemoryBits: 2, Dedup: true}).Sort(m, 0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := dumpItems(t, m, 0); len(got) != 1 || got[0] != "01" {
		t.Fatalf("dedup = %v, want [01]", got)
	}
}

// MergeTapes — the combine stage of the sharded sort — must produce
// the globally sorted (optionally deduplicated) sequence from sorted
// per-tape inputs, for every lane count including one.
func TestMergeTapesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(5)
		var all []string
		parts := make([][]string, k)
		for i := range parts {
			part := randomItems(rng.Intn(30), 6, rng)
			sort.Strings(part)
			parts[i] = part
			all = append(all, part...)
		}
		want := append([]string(nil), all...)
		sort.Strings(want)
		for _, dedup := range []bool{false, true} {
			m := core.NewMachine(k+1, 1)
			srcs := make([]int, k)
			for i := range srcs {
				srcs[i] = i + 1
				// Tape handoff as the sharded sort performs it: the
				// sorted sequence is placed, not written by this machine.
				var enc []byte
				for _, it := range parts[i] {
					enc = append(enc, it...)
					enc = append(enc, '#')
				}
				m.SetTape(i+1, enc)
			}
			if err := MergeTapes(m, 0, srcs, dedup); err != nil {
				t.Fatalf("k=%d dedup=%v: %v", k, dedup, err)
			}
			// One forward scan per tape: a merge pass over freshly
			// placed tapes adds no reversals. (Snapshot before the
			// dump below rewinds the output tape.)
			if rev := m.Resources().Reversals; rev != 0 {
				t.Fatalf("k=%d: merge cost %d reversals, want 0", k, rev)
			}
			ref := want
			if dedup {
				ref = uniqSorted(all)
			}
			if got := dumpItems(t, m, 0); strings.Join(got, ",") != strings.Join(ref, ",") {
				t.Fatalf("k=%d dedup=%v: merged = %v, want %v", k, dedup, got, ref)
			}
		}
	}
}

func TestMergeTapesValidation(t *testing.T) {
	m := core.NewMachine(3, 1)
	if err := MergeTapes(m, 0, []int{1, 1}, false); err == nil {
		t.Fatal("duplicate src accepted")
	}
	if err := MergeTapes(m, 1, []int{1, 2}, false); err == nil {
		t.Fatal("dst aliasing a src accepted")
	}
	// No lanes: dst is just cleared.
	loadItems(t, m, 0, []string{"1", "0"})
	if err := MergeTapes(m, 0, nil, false); err != nil {
		t.Fatal(err)
	}
	if got := dumpItems(t, m, 0); len(got) != 0 {
		t.Fatalf("empty merge left %v", got)
	}
}

// The fixed-count rule in isolation: greedy first fill sets the
// per-run count, the first item always opens a run, and a zero budget
// degenerates to single-item runs.
func TestRunPlannerRule(t *testing.T) {
	p := RunPlanner{Budget: 10}
	var boundaries []int
	for i, bits := range []int64{4, 4, 4, 4, 4, 4, 4} {
		if p.Next(bits) {
			boundaries = append(boundaries, i)
		}
	}
	// 4+4 fits, +4 would exceed 10 ⇒ runs of 2: boundaries at 0, 2, 4, 6.
	if fmt.Sprint(boundaries) != "[0 2 4 6]" || p.RunLen != 2 {
		t.Fatalf("boundaries %v runLen %d", boundaries, p.RunLen)
	}
	// Oversized first item: a run of one, fixed for the rest.
	p = RunPlanner{Budget: 3}
	if !p.Next(8) || !p.Next(1) || p.RunLen != 1 {
		t.Fatalf("oversized first item did not fix single-item runs (runLen %d)", p.RunLen)
	}
	// No budget: every item is a run.
	p = RunPlanner{}
	for i := 0; i < 3; i++ {
		if !p.Next(5) {
			t.Fatalf("budget 0: item %d did not start a run", i)
		}
	}
	// Budget never exceeded: RunLen stays 0 (single run).
	p = RunPlanner{Budget: 100}
	p.Next(4)
	p.Next(4)
	if p.RunLen != 0 {
		t.Fatalf("unfilled budget fixed runLen %d", p.RunLen)
	}
}

// Sorts on many goroutines share the tape page pool, and each reads
// its items as views of pages it owns: every sort must still produce
// its own sorted output while the others take, fill and return pages.
// CI runs this test under -race.
func TestConcurrentSortsSharePagePool(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := tape.Options{}
			if g%2 == 1 {
				o = tape.Options{Storage: tape.File, SpillDir: t.TempDir(), SpillThreshold: 64 << 10}
			}
			rng := rand.New(rand.NewSource(int64(g)))
			for round := range 2 {
				if err := poolSort(o, rng, Sorter{FanIn: 2 + (g+round)%7, RunMemoryBits: refRunBudgets[(g+round)%5], Dedup: g%3 == 0}); err != nil {
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

// poolSort sorts an input whose items straddle the tape window and
// checks the output against an in-memory sort.
func poolSort(o tape.Options, rng *rand.Rand, s Sorter) error {
	input := genSortInput(rng, 70<<10, 3, 20)
	items := strings.SplitAfter(string(input), "#")
	items = items[:len(items)-1]
	sort.Strings(items)
	if s.Dedup {
		items = uniqSorted(items)
	}
	k := s.fanIn()
	m := core.NewMachineOpts(1+k, 1, o)
	defer m.Close()
	m.SetInput(input)
	work := make([]int, k)
	for i := range work {
		work[i] = 1 + i
	}
	if err := s.Sort(m, 0, work); err != nil {
		return err
	}
	if got := string(m.Tape(0).Contents()); got != strings.Join(items, "") {
		return fmt.Errorf("%+v: the output differs from the in-memory sort", s)
	}
	return nil
}
