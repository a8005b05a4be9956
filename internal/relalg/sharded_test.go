package relalg

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"extmem/internal/core"
	"extmem/internal/plan"
	"extmem/internal/problems"
	"extmem/internal/shard"
)

// queryPlans are the relational plans the query experiments exercise:
// the Theorem 11 symmetric difference (E6, and the relational face of
// the E7/E8 set-equality reductions) plus one plan per operator kind
// that reaches sortDedup.
func queryPlans() []Expr {
	return []Expr{
		SymmetricDifference("R1", "R2"),
		Scan{Rel: "R1"},
		Project{Cols: []string{"x"}, In: Scan{Rel: "R1"}},
		Select{Pred: ConstEq{Col: "x", Const: "01"}, In: Scan{Rel: "R2"}},
		Union{L: Scan{Rel: "R1"}, R: Scan{Rel: "R2"}},
		Diff{L: Scan{Rel: "R1"}, R: Scan{Rel: "R2"}},
		Product{L: Scan{Rel: "R1"}, R: Scan{Rel: "R2"}},
	}
}

// The tentpole invariant: for every query plan, the sharded evaluator
// produces tuple-for-tuple the result of the single-machine engine
// and of the legacy in-memory evaluator, at every shard count, and
// releases all internal memory.
func TestShardedEvalSTMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 4; trial++ {
		var in problems.Instance
		if trial%2 == 0 {
			in = problems.GenSetYes(6+trial*9, 8, rng)
		} else {
			in = problems.GenSetNo(6+trial*9, 8, rng)
		}
		db := InstanceDB(in)
		for _, q := range queryPlans() {
			m := core.NewMachine(NumQueryTapes, 1)
			ref, err := EvalST(q, db, m)
			if err != nil {
				t.Fatalf("%v: %v", q, err)
			}
			legacy, err := Eval(q, db)
			if err != nil {
				t.Fatalf("%v: %v", q, err)
			}
			for _, shards := range []int{1, 2, 4} {
				rep := &QueryReport{}
				ev := Evaluator{Shards: shards, Report: rep}
				sm := core.NewMachine(NumQueryTapes, 1)
				got, err := ev.EvalST(nil, q, db, sm)
				if err != nil {
					t.Fatalf("%v shards=%d: %v", q, shards, err)
				}
				if !reflect.DeepEqual(got.Tuples, ref.Tuples) {
					t.Fatalf("%v shards=%d: sharded result differs from the engine", q, shards)
				}
				if !got.EqualSet(legacy) {
					t.Fatalf("%v shards=%d: sharded result differs from the legacy evaluator", q, shards)
				}
				if cur := sm.Mem().Current(); cur != 0 {
					t.Errorf("%v shards=%d: %d bits still charged (regions %v)",
						q, shards, cur, sm.Mem().Regions())
				}
				if len(rep.Sorts) == 0 {
					t.Errorf("%v shards=%d: no operator sort reported", q, shards)
				}
				for _, sr := range rep.Sorts {
					if len(sr.Shards) != shards {
						t.Errorf("%v: sort report has %d shards, want %d", q, len(sr.Shards), shards)
					}
				}
			}
		}
	}
}

// The rollup invariants of the sharded query path, mirroring the
// internal/shard sort suite: across shard counts the number of
// operator sorts is fixed, sum(scans) never drops below the 1-shard
// fleet, no shard exceeds the single-machine memory peak, and the
// widest shard's scan count strictly falls.
func TestShardedQueryRollupInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	in := problems.GenSetNo(256, 16, rng)
	db := InstanceDB(in)
	q := SymmetricDifference("R1", "R2")
	const runMem = 256 // 16-item runs: the scan sorts form 16 runs each

	single := core.NewMachine(NumQueryTapes, 1)
	if _, err := (Evaluator{RunMemoryBits: runMem}).EvalST(nil, q, db, single); err != nil {
		t.Fatal(err)
	}
	singlePeak := single.Resources().PeakMemoryBits

	var oneShard *QueryReport
	prevMax := int(^uint(0) >> 1)
	for _, shards := range []int{1, 2, 4} {
		rep := &QueryReport{}
		m := core.NewMachine(NumQueryTapes, 1)
		if _, err := (Evaluator{Shards: shards, RunMemoryBits: runMem, Report: rep}).EvalST(nil, q, db, m); err != nil {
			t.Fatal(err)
		}
		if oneShard == nil {
			oneShard = rep
		}
		if len(rep.Sorts) != len(oneShard.Sorts) {
			t.Fatalf("shards=%d: %d operator sorts, want %d", shards, len(rep.Sorts), len(oneShard.Sorts))
		}
		if len(rep.Scans) != len(oneShard.Scans) || len(rep.Scans) == 0 {
			t.Fatalf("shards=%d: %d operator scans, want %d (nonzero)", shards, len(rep.Scans), len(oneShard.Scans))
		}
		for _, sr := range rep.Scans {
			if sr.Op != ScanOpDiff || len(sr.Shards) != shards {
				t.Fatalf("shards=%d: scan report op=%q shards=%d", shards, sr.Op, len(sr.Shards))
			}
		}
		agg := rep.Rollup()
		if agg.Shards != shards {
			t.Errorf("shards=%d: rollup census %d", shards, agg.Shards)
		}
		if agg.SumScans < oneShard.Rollup().SumScans {
			t.Errorf("shards=%d: sum(scans)=%d < 1-shard fleet %d",
				shards, agg.SumScans, oneShard.Rollup().SumScans)
		}
		if agg.MaxMemoryBits > singlePeak {
			t.Errorf("shards=%d: max(memory)=%d > single machine %d", shards, agg.MaxMemoryBits, singlePeak)
		}
		if agg.MaxScans >= prevMax {
			t.Errorf("shards=%d: max(scans)=%d did not fall (prev %d)", shards, agg.MaxScans, prevMax)
		}
		prevMax = agg.MaxScans
		var critSum int64
		for _, sr := range rep.Sorts {
			critSum += sr.CriticalPathSteps()
		}
		for _, sr := range rep.Scans {
			critSum += sr.CriticalPathSteps()
		}
		if got := rep.CriticalPathSteps(); got != critSum {
			t.Errorf("shards=%d: critical path %d, want %d", shards, got, critSum)
		}
	}
}

// Evaluator.Sorted is the machine-backed Relation.Sorted: same order,
// duplicates kept, at every shard count.
func TestEvaluatorSortedMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 8; trial++ {
		rel := &Relation{Name: "R", Schema: Schema{"x", "y"}}
		for i := 0; i < rng.Intn(50); i++ {
			rel.Tuples = append(rel.Tuples, Tuple{
				string([]byte{'0' + byte(rng.Intn(2))}),
				string([]byte{'0' + byte(rng.Intn(2)), '0' + byte(rng.Intn(2))}),
			})
		}
		want := rel.Sorted()
		for _, shards := range []int{0, 1, 3} {
			m := core.NewMachine(NumQueryTapes, 1)
			got, err := Evaluator{Shards: shards}.Sorted(nil, m, rel)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d: %d tuples, want %d (duplicates must be kept)", shards, len(got), len(want))
			}
			for i := range got {
				if got[i].key() != want[i].key() {
					t.Fatalf("shards=%d: tuple %d = %v, want %v", shards, i, got[i], want[i])
				}
			}
			if cur := m.Mem().Current(); cur != 0 {
				t.Errorf("shards=%d: %d bits still charged after Sorted", shards, cur)
			}
		}
	}
}

// Evaluator.EqualSet is the machine-backed Relation.EqualSet: same
// verdict on equal and unequal pairs, at every shard count.
func TestEvaluatorEqualSetMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 10; trial++ {
		var in problems.Instance
		if trial%2 == 0 {
			in = problems.GenSetYes(12, 8, rng)
		} else {
			in = problems.GenSetNo(12, 8, rng)
		}
		db := InstanceDB(in)
		want := db["R1"].EqualSet(db["R2"])
		for _, shards := range []int{0, 2, 4} {
			m := core.NewMachine(NumQueryTapes, 1)
			got, err := Evaluator{Shards: shards}.EqualSet(nil, m, db["R1"], db["R2"])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("shards=%d: EqualSet=%v, want %v", shards, got, want)
			}
			if cur := m.Mem().Current(); cur != 0 {
				t.Errorf("shards=%d: %d bits still charged after EqualSet", shards, cur)
			}
		}
	}
}

// Sharded operator scans keep the sort stages' recovery census: a panic
// on one shard's first attempt heals by retry, a panic on every budgeted
// attempt of one shard falls back to the coordinator, and in both cases
// every ScanReport records the same exact census while the result
// tuples stay those of the clean run.
func TestShardedScanRecoveryCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	db := InstanceDB(problems.GenSetNo(24, 8, rng))
	cases := []struct {
		name                           string
		budget                         int
		inject                         shard.InjectFunc
		attempts, recovered, fallbacks int
	}{
		{"flaky@s0a1", 3, func(sh, attempt int) error {
			if sh == 0 && attempt == 1 {
				panic("injected scan fault")
			}
			return nil
		}, 4, 1, 0},
		{"perm@s1", 2, func(sh, _ int) error {
			if sh == 1 {
				panic("injected scan fault")
			}
			return nil
		}, 5, 2, 1},
	}
	queries := []Expr{
		SymmetricDifference("R1", "R2"),
		Product{L: Scan{Rel: "R1"}, R: Scan{Rel: "R2"}},
	}
	for _, q := range queries {
		clean, err := Evaluator{Shards: 3}.EvalST(nil, q, db, core.NewMachine(NumQueryTapes, 1))
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		for _, c := range cases {
			rep := &QueryReport{}
			got, err := Evaluator{
				Shards: 3, Retry: shard.RetryPolicy{MaxAttempts: c.budget},
				Inject: c.inject, Report: rep,
			}.EvalST(nil, q, db, core.NewMachine(NumQueryTapes, 1))
			if err != nil {
				t.Fatalf("%v %s: %v", q, c.name, err)
			}
			if !reflect.DeepEqual(got.Tuples, clean.Tuples) {
				t.Fatalf("%v %s: result moved under recovery", q, c.name)
			}
			if len(rep.Scans) == 0 {
				t.Fatalf("%v %s: no operator scan reported", q, c.name)
			}
			for i, sr := range rep.Scans {
				if sr.Attempts != c.attempts || sr.Recovered != c.recovered || sr.Fallbacks != c.fallbacks {
					t.Errorf("%v %s: scan %d census (a=%d r=%d f=%d), want (a=%d r=%d f=%d)",
						q, c.name, i, sr.Attempts, sr.Recovered, sr.Fallbacks,
						c.attempts, c.recovered, c.fallbacks)
				}
			}
		}
	}
}

// The difference and product scans cut their left side exactly as a
// sharded sort cuts its input and broadcast the right side in one
// forward sweep: each ScanReport's partition census equals that of
// shard.Sort.Run over the same left payload, on a two-tape distribution
// machine whose second tape is read once, end to end, never reversed.
func TestShardedScanPartitionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	db := InstanceDB(problems.GenSetNo(64, 16, rng))
	for _, q := range []Expr{
		Diff{L: Scan{Rel: "R1"}, R: Scan{Rel: "R2"}},
		Product{L: Scan{Rel: "R1"}, R: Scan{Rel: "R2"}},
	} {
		var mu sync.Mutex
		jobs := map[int]ScanJob{}
		rep := &QueryReport{}
		ev := Evaluator{Shards: 3, RunMemoryBits: 256, Report: rep,
			ExecScan: func(_ context.Context, sh, _ int, job ScanJob) ([]byte, core.Resources, error) {
				mu.Lock()
				jobs[sh] = job
				mu.Unlock()
				return job.Execute()
			}}
		if _, err := ev.EvalST(nil, q, db, core.NewMachine(NumQueryTapes, 1)); err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if len(rep.Scans) != 1 || len(jobs) != 3 {
			t.Fatalf("%v: %d scans over %d shard jobs, want 1 over 3", q, len(rep.Scans), len(jobs))
		}
		var left []byte
		for sh := range 3 {
			left = append(left, jobs[sh].Left...)
		}
		right := jobs[0].Right
		_, want, err := shard.Sort{Shards: 3, RunMemoryBits: 256}.Run(nil, left, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want.Runs < 3 {
			t.Fatalf("%v: left side forms %d runs, want a partition across all 3 shards", q, want.Runs)
		}
		got := rep.Scans[0]
		if got.Items != want.Items || got.Bytes != want.Bytes || got.Runs != want.Runs || got.RunLen != want.RunLen {
			t.Errorf("%v: scan partition (items=%d bytes=%d runs=%d runlen=%d), sort partition (%d %d %d %d)",
				q, got.Items, got.Bytes, got.Runs, got.RunLen, want.Items, want.Bytes, want.Runs, want.RunLen)
		}
		if !reflect.DeepEqual(got.Distribute.PerTape[0], want.Distribute.PerTape[0]) {
			t.Errorf("%v: left tape of the scan distribution %+v, sort distribution %+v",
				q, got.Distribute.PerTape[0], want.Distribute.PerTape[0])
		}
		if got.Distribute.Tapes != 2 {
			t.Fatalf("%v: scan distribution machine has %d tapes, want 2", q, got.Distribute.Tapes)
		}
		if bc := got.Distribute.PerTape[1]; bc.Reversals != 0 || bc.Reads != int64(len(right)) {
			t.Errorf("%v: broadcast tape %+v, want one forward sweep of %d bytes", q, bc, len(right))
		}
	}
}

// censusPlans are queryPlans plus nested plans whose census depends on
// what the parent operator does with a child's tape: a Rename, a
// Select, a Project, a Diff, a Product, a nested Union and a SemiJoin
// each feeding a Union.
func censusPlans() []Expr {
	r1, r2 := Scan{Rel: "R1"}, Scan{Rel: "R2"}
	y := []string{"y"}
	return append(queryPlans(),
		Union{L: Rename{Cols: y, In: r1}, R: Rename{Cols: y, In: r2}},
		Union{L: Select{Pred: Not{P: ConstEq{Col: "x", Const: "00000"}}, In: r1}, R: r2},
		Union{L: Project{Cols: []string{"x"}, In: r1}, R: Diff{L: r2, R: r1}},
		Union{L: Union{L: Product{L: r1, R: r2}, R: Product{L: r2, R: r1}}, R: Product{L: r1, R: r1}},
		Union{L: SemiJoin{L: r1, R: r2, OnL: "x", OnR: "x"}, R: r2},
	)
}

// censusDigests are the first 16 hex digits of the SHA-256 of each
// census rendering (see TestEvaluatorCensusPerOperator), one per plan
// of censusPlans, recorded before the staged and pipelined operator
// walks shared one evalTape.
var censusDigests = map[string][]string{
	"zero": {
		"13fcc69e81517317", "396528114c7da7de", "49cbce1cd86c6753", "f228084f81ea849e",
		"1a7b18c45cb917f9", "a0674cc970c7398c", "d90a3c8e3d1e8623", "1a7b18c45cb917f9",
		"252ae0ca1f86574e", "13041eaa53d6f995", "b07366df20cebd78", "5d9d032489f67ecc",
	},
	"shards2": {
		"507e66d44d5bea8e", "9511b73f72f57974", "6b6912219d2b45b0", "d19b8f9ab336c052",
		"0d6a5d60085f8ac9", "565957ccad957aea", "174f0496ac4995cb", "0d6a5d60085f8ac9",
		"a329e4dfd2f6a9da", "9d3cfab86cc89a8b", "680750f1dc7d5aa1", "9b61bbedc7691a14",
	},
	"shards2-pipeline": {
		"798508fcc7d6539c", "9511b73f72f57974", "6b6912219d2b45b0", "d19b8f9ab336c052",
		"5f266cb2144a013d", "565957ccad957aea", "174f0496ac4995cb", "5f266cb2144a013d",
		"8b8137ba33baa0cb", "edd616b371107373", "5cec3ef6bea51300", "83d5d877fe43280a",
	},
	"shards3-fanin8-mem128-pipeline": {
		"e3e3f1a42fa794e4", "590f9f8b3edbb42f", "22b3cac3d9f6e926", "f2cec6ff09bf2a31",
		"ee51389f0bb11601", "c4eafa970abcf1bc", "f359feebdf73fab1", "ee51389f0bb11601",
		"458ec45d06f56712", "6cd1a2e4018a1c50", "cfae18e80aa91018", "1349050b2762acda",
	},
	"planned": {
		"73987fc3bfe77aea", "651f6f3965de147e", "d46b5b650e88bf44", "7adf37982de9f8e5",
		"a048e6d7f21071b8", "247ac50b1ba678a4", "fdf91a1921105b88", "a048e6d7f21071b8",
		"af2f2b7814f120ca", "ae9d1c8020b80f4e", "b30368c9474faf6b", "eacaceb4e66947d0",
	},
}

// Every execution shape's per-stage census is pinned: each plan's
// QueryReport (every sort, merge and scan stage, with its per-shard
// and per-tape reports) and the query machine's own Resources must
// equal the recorded values. Byte-identity alone would not catch an
// extra sort, a tape acquired in another order or a stage moved
// between the coordinator and the fleet.
func TestEvaluatorCensusPerOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	a, b := problems.GenSetYes(24, 5, rng), problems.GenSetYes(24, 5, rng)
	db := InstanceDB(problems.Instance{V: a.V, W: append(b.V, a.V[:6]...)})
	shapes := []struct {
		name string
		ev   Evaluator
	}{
		{"zero", Evaluator{}},
		{"shards2", Evaluator{Shards: 2}},
		{"shards2-pipeline", Evaluator{Shards: 2, Pipeline: true}},
		{"shards3-fanin8-mem128-pipeline", Evaluator{Shards: 3, FanIn: 8, RunMemoryBits: 128, Pipeline: true}},
		{"planned", Evaluator{Plan: plan.Auto(plan.Budget{MemoryBits: 256, Tapes: 6, MaxShards: 4})}},
	}
	for _, sh := range shapes {
		want := censusDigests[sh.name]
		for i, q := range censusPlans() {
			rep := &QueryReport{}
			ev := sh.ev
			ev.Report = rep
			m := core.NewMachine(NumQueryTapes, 1)
			if _, err := ev.EvalST(nil, q, db, m); err != nil {
				t.Fatalf("%s %v: %v", sh.name, q, err)
			}
			sum := sha256.Sum256(fmt.Appendf(nil, "%+v\n%+v", *rep, m.Resources()))
			got := hex.EncodeToString(sum[:8])
			if i >= len(want) || got != want[i] {
				t.Errorf("%s plan %d %v: census digest %s, recorded %v", sh.name, i, q, got, want)
			}
		}
	}
}
