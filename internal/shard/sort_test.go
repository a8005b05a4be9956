package shard

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"extmem/internal/algorithms"
	"extmem/internal/core"
)

// encodeItems renders items in the paper's '#'-terminated format.
func encodeItems(items []string) []byte {
	var b bytes.Buffer
	for _, it := range items {
		b.WriteString(it)
		b.WriteByte('#')
	}
	return b.Bytes()
}

// randomItems generates count random bit strings (duplicates likely,
// mixed lengths when varied is set).
func randomItems(count int, varied bool, rng *rand.Rand) []string {
	items := make([]string, count)
	for i := range items {
		n := 8
		if varied {
			n = 1 + rng.Intn(12)
		}
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte('0' + byte(rng.Intn(2)))
		}
		items[i] = sb.String()
	}
	return items
}

// reference sorts (and optionally dedups) in plain Go.
func reference(items []string, dedup bool) []byte {
	s := append([]string(nil), items...)
	sort.Strings(s)
	if dedup {
		out := s[:0]
		for i, it := range s {
			if i == 0 || it != s[i-1] {
				out = append(out, it)
			}
		}
		s = out
	}
	return encodeItems(s)
}

// singleMachine runs the unsharded PR 3 engine on the same input.
func singleMachine(t *testing.T, input []byte, fanIn int, mem int64, dedup bool) ([]byte, core.Resources) {
	t.Helper()
	m := core.NewMachine(fanIn+2, 1)
	m.SetInput(input)
	s := algorithms.Sorter{FanIn: fanIn, RunMemoryBits: mem, Dedup: dedup}
	if err := s.SortToTape(m, 1, algorithms.WorkTapes(m, 1)); err != nil {
		t.Fatal(err)
	}
	return m.Tape(1).Contents(), m.Resources()
}

// The tentpole invariant for the sort: the sharded output is
// byte-identical to both the unsharded engine and the plain-Go
// reference at every shard count, fan-in, memory budget and dedup
// setting — including inputs smaller than the shard count.
func TestShardedSortMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, count := range []int{0, 1, 3, 64, 257} {
		for _, varied := range []bool{false, true} {
			items := randomItems(count, varied, rng)
			input := encodeItems(items)
			for _, shards := range []int{1, 2, 3, 4, 8} {
				for _, fanIn := range []int{2, 4} {
					for _, mem := range []int64{0, 512} {
						for _, dedup := range []bool{false, true} {
							out, rep, err := Sort{
								Shards: shards, FanIn: fanIn,
								RunMemoryBits: mem, Dedup: dedup,
							}.Run(nil, input, 1)
							if err != nil {
								t.Fatalf("count=%d shards=%d k=%d mem=%d dedup=%v: %v",
									count, shards, fanIn, mem, dedup, err)
							}
							want := reference(items, dedup)
							if !bytes.Equal(out, want) {
								t.Fatalf("count=%d varied=%v shards=%d k=%d mem=%d dedup=%v: output differs from reference",
									count, varied, shards, fanIn, mem, dedup)
							}
							single, _ := singleMachine(t, input, fanIn, mem, dedup)
							if !bytes.Equal(out, single) {
								t.Fatalf("count=%d shards=%d: output differs from unsharded engine", count, shards)
							}
							if rep.Items != count || len(rep.Shards) != shards {
								t.Fatalf("report shape: items=%d shards=%d, want %d/%d",
									rep.Items, len(rep.Shards), count, shards)
							}
						}
					}
				}
			}
		}
	}
}

// The ISSUE's rollup invariants: sharding pays with total work, never
// with per-shard memory — sum(scans) stays at or above the single
// machine while max(shard memory) stays at or below it.
func TestShardedSortRollupInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randomItems(1024, false, rng)
	input := encodeItems(items)
	const fanIn, mem = 4, 1024
	_, singleRes := singleMachine(t, input, fanIn, mem, false)
	prevMax := singleRes.Scans() + 1
	for _, shards := range []int{1, 2, 4, 8} {
		_, rep, err := Sort{Shards: shards, FanIn: fanIn, RunMemoryBits: mem}.Run(nil, input, 1)
		if err != nil {
			t.Fatal(err)
		}
		agg := rep.Rollup()
		if agg.SumScans < singleRes.Scans() {
			t.Errorf("shards=%d: sum(scans)=%d < single-machine %d", shards, agg.SumScans, singleRes.Scans())
		}
		if agg.MaxMemoryBits > singleRes.PeakMemoryBits {
			t.Errorf("shards=%d: max(memory)=%d > single-machine %d", shards, agg.MaxMemoryBits, singleRes.PeakMemoryBits)
		}
		if agg.MaxScans >= prevMax {
			t.Errorf("shards=%d: max(scans)=%d did not fall (prev %d)", shards, agg.MaxScans, prevMax)
		}
		prevMax = agg.MaxScans
		if agg.Shards != shards || len(rep.Shards) != shards {
			t.Errorf("shards=%d: rollup census %d/%d", shards, agg.Shards, len(rep.Shards))
		}
		if got := rep.CriticalPathSteps(); got != rep.Distribute.Steps+agg.MaxSteps+rep.Merge.Steps {
			t.Errorf("shards=%d: critical path %d inconsistent", shards, got)
		}
		// At one shard the local machine does exactly the single-machine
		// sort: identical (r, s) report.
		if shards == 1 {
			if rep.Shards[0].Scans() != singleRes.Scans() || rep.Shards[0].PeakMemoryBits != singleRes.PeakMemoryBits {
				t.Errorf("1-shard local report %v != single machine %v", rep.Shards[0], singleRes)
			}
		}
	}
}

// The mid-run tape handoff a sharded operator sort performs — Run on
// the tape's items, then core.Machine.SwapTape of the sorted fleet
// output — replaces the tape's content with the head rewound, while
// the machine's own pre-handoff traffic on that slot stays on the
// books (SwapTape keeps the counters; only the sort itself is
// accounted off-machine, in the report).
func TestSortTapeKeepsCoordinatorCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := randomItems(40, true, rng)
	m := core.NewMachine(2, 1)
	tp := m.Tape(1)
	for _, it := range items {
		if err := algorithms.WriteItem(tp, []byte(it)); err != nil {
			t.Fatal(err)
		}
	}
	before := tp.Stats()
	if before.Writes == 0 || before.Steps == 0 {
		t.Fatalf("test setup produced no traffic: %+v", before)
	}
	out, rep, err := Sort{Shards: 3, FanIn: 2, RunMemoryBits: 128, Dedup: true}.Run(nil, tp.Contents(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SwapTape(1, out)
	after := tp.Stats()
	if after.Writes != before.Writes || after.Steps != before.Steps || after.Reversals != before.Reversals {
		t.Errorf("handoff changed the coordinator's counters: before %+v, after %+v", before, after)
	}
	if rep.Items != 40 {
		t.Errorf("report saw %d items, want 40", rep.Items)
	}
	if got, want := tp.Contents(), reference(items, true); !bytes.Equal(got, want) {
		t.Errorf("handed-back tape is not the sorted dedup'd sequence")
	}
	if tp.Pos() != 0 {
		t.Errorf("handed-back tape head at %d, want 0", tp.Pos())
	}
}

// Run partitioning must follow the engine's fixed-count rule: the
// greedy first fill under the budget sets the per-run item count.
func TestShardedSortRunPartitioning(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randomItems(100, false, rng) // 8-bit items
	input := encodeItems(items)
	_, rep, err := Sort{Shards: 3, FanIn: 2, RunMemoryBits: 64}.Run(nil, input, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunLen != 8 { // ⌊64/8⌋ items per run
		t.Fatalf("run length %d, want 8", rep.RunLen)
	}
	if rep.Runs != 13 { // ⌈100/8⌉
		t.Fatalf("runs %d, want 13", rep.Runs)
	}
	if rep.Distribute.Scans() != 1 {
		t.Fatalf("distribution used %d scans, want 1", rep.Distribute.Scans())
	}
}

// The pipelined handoff invariant: stopping before the combine
// (RunKeepRuns) and merging the handed-over runs later (MergeRuns)
// must reproduce Run's bytes exactly — at every producer/consumer
// shard-count combination, with dedup deferred to the final merge.
func TestKeepRunsMergeRunsMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, count := range []int{0, 1, 5, 64, 257} {
		items := randomItems(count, true, rng)
		input := encodeItems(items)
		for _, prodShards := range []int{1, 2, 4} {
			for _, consShards := range []int{1, 3, 4} {
				for _, dedup := range []bool{false, true} {
					prod := Sort{Shards: prodShards, FanIn: 3, RunMemoryBits: 256}
					runs, rep, err := prod.RunKeepRuns(nil, input, 1)
					if err != nil {
						t.Fatal(err)
					}
					if len(runs) != prodShards {
						t.Fatalf("KeepRuns returned %d runs, want %d", len(runs), prodShards)
					}
					if rep.Merge.Steps != 0 || rep.Merge.Tapes != 0 {
						t.Fatalf("KeepRuns ran a merge machine: %+v", rep.Merge)
					}
					for i, run := range runs {
						if single, _ := singleMachine(t, run, 3, 256, false); !bytes.Equal(run, single) {
							t.Fatalf("shard %d run is not sorted", i)
						}
					}
					cons := Sort{Shards: consShards, FanIn: 3, RunMemoryBits: 256, Dedup: dedup}
					out, mrep, err := cons.MergeRuns(nil, nil, runs, 1)
					if err != nil {
						t.Fatal(err)
					}
					want := reference(items, dedup)
					if !bytes.Equal(out, want) {
						t.Fatalf("count=%d prod=%d cons=%d dedup=%v: MergeRuns differs from reference",
							count, prodShards, consShards, dedup)
					}
					if mrep.Distribute.Steps != 0 || mrep.Distribute.Tapes != 0 {
						t.Fatalf("MergeRuns ran a distribute scan: %+v", mrep.Distribute)
					}
					if mrep.Items != count || mrep.Runs != prodShards || len(mrep.Shards) != consShards {
						t.Fatalf("MergeRuns report shape: items=%d runs=%d shards=%d",
							mrep.Items, mrep.Runs, len(mrep.Shards))
					}
				}
			}
		}
	}
}

// MergeRuns is a union-shaped consumer: runs handed over by several
// producers merge and dedup exactly like concatenating the inputs and
// running the full sharded sort.
func TestMergeRunsAcrossProducers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomItems(100, true, rng)
	b := randomItems(37, true, rng)
	runsA, _, err := Sort{Shards: 2, FanIn: 2, RunMemoryBits: 128}.RunKeepRuns(nil, encodeItems(a), 1)
	if err != nil {
		t.Fatal(err)
	}
	runsB, _, err := Sort{Shards: 3, FanIn: 2, RunMemoryBits: 128}.RunKeepRuns(nil, encodeItems(b), 1)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Sort{Shards: 2, FanIn: 2, RunMemoryBits: 128, Dedup: true}.
		MergeRuns(nil, nil, append(append([][]byte(nil), runsA...), runsB...), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(append(append([]string(nil), a...), b...), true)
	if !bytes.Equal(out, want) {
		t.Fatal("MergeRuns over two producers differs from sorting the concatenation")
	}
}

// MergeRuns shard faults sit on the same retry → fallback path as sort
// shard faults: the census moves, the bytes never do.
func TestMergeRunsRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	items := randomItems(120, false, rng)
	runs, _, err := Sort{Shards: 4, FanIn: 2, RunMemoryBits: 128}.RunKeepRuns(nil, encodeItems(items), 1)
	if err != nil {
		t.Fatal(err)
	}
	clean, crep, err := Sort{Shards: 3, FanIn: 2, RunMemoryBits: 128, Dedup: true}.MergeRuns(nil, nil, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if crep.Attempts != 3 || crep.Fallbacks != 0 || crep.Recovered != 0 {
		t.Fatalf("clean census moved: %+v", crep)
	}

	// A flaky first attempt on shard 0 heals by retry.
	flaky := Sort{
		Shards: 3, FanIn: 2, RunMemoryBits: 128, Dedup: true,
		Retry: RetryPolicy{MaxAttempts: 3},
		Inject: func(shard, attempt int) error {
			if shard == 0 && attempt == 1 {
				panic("injected merge fault")
			}
			return nil
		},
	}
	out, rep, err := flaky.MergeRuns(nil, nil, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, clean) {
		t.Fatal("recovered MergeRuns moved bytes")
	}
	if rep.Attempts != 4 || rep.Recovered != 1 || rep.Fallbacks != 0 {
		t.Fatalf("flaky census: %+v", rep)
	}

	// A permanent fault on shard 1 exhausts the budget and falls back
	// to the coordinator.
	perm := Sort{
		Shards: 3, FanIn: 2, RunMemoryBits: 128, Dedup: true,
		Retry: RetryPolicy{MaxAttempts: 2},
		Inject: func(shard, attempt int) error {
			if shard == 1 {
				return &PanicError{Shard: shard, Value: "permanent"}
			}
			return nil
		},
	}
	out, rep, err = perm.MergeRuns(nil, nil, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, clean) {
		t.Fatal("fallback MergeRuns moved bytes")
	}
	if rep.Fallbacks != 1 || rep.Attempts != 5 {
		t.Fatalf("permanent census: %+v", rep)
	}
}
