package extmem

// One benchmark per experiment of the E1–E19 suite. Each benchmark
// exercises the core operation its experiment measures; the printed
// tables come from cmd/stbench (same runners, internal/experiments).
// The E19 workload is covered by BenchmarkE6RelAlgSharded (the
// sharded query evaluator across shard counts) and its
// BenchmarkE6AntiMergeProduct and BenchmarkEqualSetSharded
// companions; the E21 planner sweep is BenchmarkE6Planned (the same
// workload under widening envelopes, against the fixed shapes of
// BenchmarkE6RelAlgSharded).

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/experiments"
	"extmem/internal/listmachine"
	"extmem/internal/lowerbound"
	"extmem/internal/numeric"
	"extmem/internal/perm"
	"extmem/internal/plan"
	"extmem/internal/problems"
	"extmem/internal/relalg"
	"extmem/internal/simulate"
	"extmem/internal/tape"
	"extmem/internal/turing"
	"extmem/internal/xmlstream"
	"extmem/internal/xpath"
	"extmem/internal/xquery"
)

// BenchmarkE1DeterministicUpperBound measures the Corollary 7
// sort-based MULTISET-EQUALITY decider (E1).
func BenchmarkE1DeterministicUpperBound(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := problems.GenMultisetYes(512, 16, rng)
	enc := in.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(algorithms.NumDeciderTapes, 1)
		m.SetInput(enc)
		if v, err := algorithms.MultisetEqualityST(m); err != nil || v != core.Accept {
			b.Fatal(err, v)
		}
	}
}

// BenchmarkE2Fingerprint measures the Theorem 8(a) two-scan
// fingerprint decider (E2).
func BenchmarkE2Fingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := problems.GenMultisetYes(512, 16, rng)
	enc := in.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(1, int64(i))
		m.SetInput(enc)
		if v, _, err := algorithms.FingerprintMultisetEquality(m); err != nil || v != core.Accept {
			b.Fatal(err, v)
		}
	}
}

// BenchmarkE1Deterministic64KiB is the E1 workload at the 64 KiB
// input size class (1024 values of 31 bits per half; 2·1024·32 =
// 65536 encoded symbols), which the bulk tape fast paths make
// practical.
func BenchmarkE1Deterministic64KiB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := problems.GenMultisetYes(1024, 31, rng)
	enc := in.Encode()
	if len(enc) != 64<<10 {
		b.Fatalf("encoded input is %d bytes, want %d", len(enc), 64<<10)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(algorithms.NumDeciderTapes, 1)
		m.SetInput(enc)
		if v, err := algorithms.MultisetEqualityST(m); err != nil || v != core.Accept {
			b.Fatal(err, v)
		}
	}
}

// BenchmarkE2Fingerprint64KiB is the E2 workload at the 64 KiB input
// size class.
func BenchmarkE2Fingerprint64KiB(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := problems.GenMultisetYes(1024, 31, rng)
	enc := in.Encode()
	if len(enc) != 64<<10 {
		b.Fatalf("encoded input is %d bytes, want %d", len(enc), 64<<10)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(1, int64(i))
		m.SetInput(enc)
		if v, _, err := algorithms.FingerprintMultisetEquality(m); err != nil || v != core.Accept {
			b.Fatal(err, v)
		}
	}
}

// BenchmarkE3NSTVerifier measures the Theorem 8(b) certificate
// verifier (E3).
func BenchmarkE3NSTVerifier(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := problems.GenMultisetYes(6, 4, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(2, 1)
		m.SetInput(in.Encode())
		if v, err := algorithms.DecideNST(algorithms.NSTMultisetEquality, m, in); err != nil || v != core.Accept {
			b.Fatal(err, v)
		}
	}
}

// BenchmarkE4Separation runs the deterministic and randomized
// deciders back to back — the Corollary 9 scan-count gap (E4).
func BenchmarkE4Separation(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := problems.GenMultisetYes(256, 12, rng)
	enc := in.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := core.NewMachine(algorithms.NumDeciderTapes, 1)
		det.SetInput(enc)
		if _, err := algorithms.MultisetEqualityST(det); err != nil {
			b.Fatal(err)
		}
		fp := core.NewMachine(1, int64(i))
		fp.SetInput(enc)
		if _, _, err := algorithms.FingerprintMultisetEquality(fp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Sort measures the Corollary 10 external sort (E5).
func BenchmarkE5Sort(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	in := problems.GenMultisetYes(512, 16, rng)
	enc := in.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(4, 1)
		m.SetInput(enc)
		if res, err := algorithms.SortLasVegas(m, 1, 2, 3, 1<<30); err != nil || res.Verdict != core.Accept {
			b.Fatal(err, res.Verdict)
		}
	}
}

// BenchmarkE5Sort64KiB is the E5 workload at the 64 KiB input size
// class, sorted the fast way: fan-in 8 (a 10-tape machine) with
// memory-budgeted run formation via SortLasVegasAuto.
func BenchmarkE5Sort64KiB(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	in := problems.GenMultisetYes(1024, 31, rng)
	enc := in.Encode()
	if len(enc) != 64<<10 {
		b.Fatalf("encoded input is %d bytes, want %d", len(enc), 64<<10)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(10, 1)
		m.SetInput(enc)
		res, err := algorithms.SortLasVegasAuto(m, 1, 1<<30, algorithms.DefaultRunMemoryBits)
		if err != nil || res.Verdict != core.Accept {
			b.Fatal(err, res.Verdict)
		}
	}
}

// BenchmarkSortFanIn sweeps the sort engine over input size × fan-in:
// the r-vs-(s, t) trade-off of E17 as wall-clock numbers. Fan-in k
// runs on a (k+2)-tape machine with the default run-formation memory;
// the k=2/mem=0 rows are the legacy single-item-run shape for
// reference.
func BenchmarkSortFanIn(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	sizes := []struct {
		name string
		m    int
	}{
		{"4KiB", 64},    // 128 items of 31 bits: 4096 encoded bytes
		{"64KiB", 1024}, // 2048 items of 31 bits: 65536 encoded bytes
	}
	for _, size := range sizes {
		in := problems.GenMultisetYes(size.m, 31, rng)
		enc := in.Encode()
		if len(enc) != size.m*64 {
			b.Fatalf("encoded input is %d bytes, want %d", len(enc), size.m*64)
		}
		for _, cfg := range []struct {
			name string
			k    int
			mem  int64
		}{
			{"k=2_mem=0", 2, 0},
			{"k=2", 2, algorithms.DefaultRunMemoryBits},
			{"k=4", 4, algorithms.DefaultRunMemoryBits},
			{"k=8", 8, algorithms.DefaultRunMemoryBits},
		} {
			b.Run("size="+size.name+"/"+cfg.name, func(b *testing.B) {
				b.SetBytes(int64(len(enc)))
				b.ReportAllocs()
				var scans int
				for i := 0; i < b.N; i++ {
					m := core.NewMachine(cfg.k+2, 1)
					m.SetInput(enc)
					s := algorithms.Sorter{FanIn: cfg.k, RunMemoryBits: cfg.mem}
					if err := s.SortToTape(m, 1, algorithms.WorkTapes(m, 1)); err != nil {
						b.Fatal(err)
					}
					scans = m.Resources().Scans()
				}
				b.ReportMetric(float64(scans), "scans")
			})
		}
	}
}

// appendRandomItems streams n '#'-terminated random 0-1-strings of the
// given bit width onto tp in ~1 MiB blocks, so the generator's
// internal memory stays O(1) in the input size; the head is left
// rewound to the start.
func appendRandomItems(tp *tape.Tape, n, bits int, rng *rand.Rand) error {
	buf := make([]byte, 0, 1<<20)
	for i := 0; i < n; i++ {
		v := rng.Int63() & (1<<bits - 1)
		for j := bits - 1; j >= 0; j-- {
			buf = append(buf, byte('0'+byte((v>>j)&1)))
		}
		buf = append(buf, '#')
		if len(buf)+bits+1 > cap(buf) {
			if err := tp.WriteBlock(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if err := tp.WriteBlock(buf); err != nil {
			return err
		}
	}
	return tp.Rewind()
}

// peakRSSBytes reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where the file does not exist.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// BenchmarkE5Sort1GiBFileBacked is the out-of-core size class: a 1 GiB
// input (32 Mi items of 31 bits) generated straight onto a file-backed
// tape and sorted by the fan-in-8 engine with every tape under
// -storage file semantics, proving the sort genuinely runs out of
// core — the reported peak-rss-bytes metric must sit far below the
// input size. Nightly-gated: skipped under -short and too slow for a
// PR gate.
func BenchmarkE5Sort1GiBFileBacked(b *testing.B) {
	if testing.Short() {
		b.Skip("1 GiB out-of-core size class runs nightly, not in the PR gate")
	}
	const (
		itemBits = 31
		items    = (1 << 30) / (itemBits + 1) // 32 Mi items, 1 GiB encoded
	)
	opts := tape.Options{Storage: tape.File, SpillDir: b.TempDir()}
	b.SetBytes(1 << 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMachineOpts(10, 1, opts)
		if err := appendRandomItems(m.Tape(0), items, itemBits, rand.New(rand.NewSource(5))); err != nil {
			b.Fatal(err)
		}
		s := algorithms.Sorter{FanIn: 8, RunMemoryBits: 8 << 20}
		if err := s.SortToTape(m, 1, algorithms.WorkTapes(m, 1)); err != nil {
			b.Fatal(err)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(peakRSSBytes()), "peak-rss-bytes")
}

// BenchmarkE6RelAlg measures streaming evaluation of the symmetric
// difference query of Theorem 11 (E6).
func BenchmarkE6RelAlg(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := problems.GenSetYes(128, 12, rng)
	db := relalg.InstanceDB(in)
	q := relalg.SymmetricDifference("R1", "R2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(relalg.NumQueryTapes, 1)
		r, err := relalg.EvalST(q, db, m)
		if err != nil || len(r.Tuples) != 0 {
			b.Fatal(err, len(r.Tuples))
		}
	}
}

// BenchmarkE6RelAlgSharded measures the sharded query evaluator (E19)
// on the 64 KiB input size class: the Theorem 11 symmetric-difference
// query with every operator sort run-partitioned across 1, 2 and 4
// shard machines (shards=1 is the sharded path's coordinator+fleet
// overhead floor; compare BenchmarkE6RelAlg for the single-machine
// engine).
func BenchmarkE6RelAlgSharded(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := problems.GenSetYes(1024, 31, rng)
	if len(in.Encode()) != 64<<10 {
		b.Fatalf("encoded input is %d bytes, want %d", len(in.Encode()), 64<<10)
	}
	db := relalg.InstanceDB(in)
	q := relalg.SymmetricDifference("R1", "R2")
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(64 << 10)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := relalg.Evaluator{Shards: shards}
				m := core.NewMachine(relalg.NumQueryTapes, 1)
				r, err := ev.EvalST(nil, q, db, m)
				if err != nil || len(r.Tuples) != 0 {
					b.Fatal(err, len(r.Tuples))
				}
			}
		})
	}
}

// BenchmarkE6AntiMergeProduct pairs the two sharded operator scans —
// the difference's anti-merge and the product's paired range scan —
// on the 64 KiB size class, with allocation counts reported: the scan
// hot loops read through algorithms.ItemReader, which reuses one item
// buffer, so per-item allocation churn is a regression this pair pins.
func BenchmarkE6AntiMergeProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := problems.GenSetYes(1024, 31, rng)
	db := relalg.InstanceDB(in)
	small := relalg.InstanceDB(problems.GenSetYes(48, 12, rng))
	cases := []struct {
		name string
		db   relalg.DB
		q    relalg.Expr
		want int
	}{
		{"antiMerge", db, relalg.Diff{L: relalg.Scan{Rel: "R1"}, R: relalg.Scan{Rel: "R2"}}, 0},
		{"product", small, relalg.Product{L: relalg.Scan{Rel: "R1"}, R: relalg.Scan{Rel: "R2"}}, 48 * 48},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := relalg.Evaluator{Shards: 4}
				m := core.NewMachine(relalg.NumQueryTapes, 1)
				r, err := ev.EvalST(nil, c.q, c.db, m)
				if err != nil || len(r.Tuples) != c.want {
					b.Fatal(err, len(r.Tuples))
				}
			}
		})
	}
}

// BenchmarkE6Planned measures the cost-based planner's end-to-end
// evaluation (E21) on the same 64 KiB workload as
// BenchmarkE6RelAlgSharded, across envelope widths — the planner
// picks each stage's shape and pipelines the handoff, so this is the
// planned counterpart of the fixed-shape benchmark above it.
func BenchmarkE6Planned(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := problems.GenSetYes(1024, 31, rng)
	db := relalg.InstanceDB(in)
	q := relalg.SymmetricDifference("R1", "R2")
	envelopes := []struct {
		name string
		bud  plan.Budget
	}{
		{"starved", plan.Budget{MemoryBits: 128, Tapes: 4, MaxShards: 1}},
		{"grid", plan.Budget{MemoryBits: 256, Tapes: 6, MaxShards: 4}},
		{"generous", plan.Budget{MemoryBits: 1 << 14, Tapes: 12, MaxShards: 8}},
	}
	for _, e := range envelopes {
		b.Run(e.name, func(b *testing.B) {
			b.SetBytes(64 << 10)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := relalg.Evaluator{Plan: plan.Auto(e.bud)}
				m := core.NewMachine(relalg.NumQueryTapes, 1)
				r, err := ev.EvalST(nil, q, db, m)
				if err != nil || len(r.Tuples) != 0 {
					b.Fatal(err, len(r.Tuples))
				}
			}
		})
	}
}

// BenchmarkEqualSetSharded pairs the two set-equality deciders of the
// query layer on the 64 KiB size class: the in-memory map-based
// Relation.EqualSet against the machine-backed sharded
// Evaluator.EqualSet (sort both sides across 4 shards, lockstep
// compare).
func BenchmarkEqualSetSharded(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := problems.GenSetYes(1024, 31, rng)
	db := relalg.InstanceDB(in)
	r1, r2 := db["R1"], db["R2"]
	b.Run("memory", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !r1.EqualSet(r2) {
				b.Fatal("halves must be set-equal")
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev := relalg.Evaluator{Shards: 4}
			m := core.NewMachine(relalg.NumQueryTapes, 1)
			eq, err := ev.EqualSet(nil, m, r1, r2)
			if err != nil || !eq {
				b.Fatal(err, eq)
			}
		}
	})
}

// BenchmarkE7XQuery measures the Theorem 12 query (E7).
func BenchmarkE7XQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in := problems.GenSetYes(128, 12, rng)
	doc, err := xmlstream.Parse(xmlstream.EncodeInstance(in))
	if err != nil {
		b.Fatal(err)
	}
	q := xquery.TheoremQuery()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, err := q.Eval(doc)
		if err != nil || !xquery.ResultIsTrue(result) {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8XPath measures Figure 1 query filtering plus the
// boosted T̃ decision (E8).
func BenchmarkE8XPath(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	in := problems.GenSetYes(64, 12, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !xpath.SetEqualityViaFilter(xpath.ExactFilter, in, rng) {
			b.Fatal("boosted decider rejected a yes-instance")
		}
	}
}

// BenchmarkE9Sortedness measures sortedness of the bit-reversal
// permutation (E9, Remark 20).
func BenchmarkE9Sortedness(b *testing.B) {
	phi := perm.BitReversal(1 << 14)
	bound := perm.BitReversalBound(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := perm.Sortedness(phi); s > bound {
			b.Fatalf("sortedness %d > %d", s, bound)
		}
	}
}

// BenchmarkE10Simulation measures the exact-probability check of the
// simulation lemma (E10).
func BenchmarkE10Simulation(b *testing.B) {
	tm := turing.RandomScanMachine()
	s, err := simulate.New(tm, 1, 4, false, 100000)
	if err != nil {
		b.Fatal(err)
	}
	values := []string{"1101"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pTM, err := tm.AcceptProbability(s.TMInput(values), 100000)
		if err != nil {
			b.Fatal(err)
		}
		pLM, err := s.NLM.AcceptProbability(values)
		if err != nil {
			b.Fatal(err)
		}
		if pTM.Cmp(pLM) != 0 {
			b.Fatal("probabilities differ")
		}
	}
}

// BenchmarkE11Counting measures the Lemma 22 frontier computation
// (E11).
func BenchmarkE11Counting(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := lowerbound.Frontier(2, 1, 11, 24)
		if len(pts) == 0 || pts[len(pts)-1].MaxScans <= 0 {
			b.Fatal("empty frontier")
		}
	}
}

// BenchmarkE12MergeLemma measures a full instrumented list-machine
// run with compared-pairs census (E12).
func BenchmarkE12MergeLemma(b *testing.B) {
	const m = 16
	mc := listmachine.CopyReverseCompareNLM(m)
	input := make([]string, 2*m)
	for i := range input {
		input[i] = string(rune('a' + i%26))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := mc.RunDeterministic(input)
		if err != nil || !run.Accepted {
			b.Fatal(err)
		}
		if len(run.Skeleton.ComparedPairs()) == 0 {
			b.Fatal("no compared pairs")
		}
	}
}

// BenchmarkE13RunLength measures TM execution with full resource
// tracking (E13, Lemma 3).
func BenchmarkE13RunLength(b *testing.B) {
	tm := turing.ZigZagMachine(4)
	input := []byte("^101100111010")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tm.RunDeterministic(input, 1_000_000)
		if err != nil || !res.Accepted {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14PrimeCollision measures random-prime drawing plus
// residue comparison (E14, Claim 1).
func BenchmarkE14PrimeCollision(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	k, err := numeric.FingerprintModulus(32, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := numeric.RandomPrimeUpTo(k, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15ShortReduction measures the Corollary 7 reduction f
// (E15).
func BenchmarkE15ShortReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	g, err := problems.NewCheckPhiGen(16, 48)
	if err != nil {
		b.Fatal(err)
	}
	in := g.Yes(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := problems.ShortReduction(in, g.Phi)
		if err != nil || !problems.CheckSort(out) {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16Adversary measures the pigeonhole collision search
// (E16).
func BenchmarkE16Adversary(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	sm := lowerbound.NewCommutativeHashStream(8, 4)
	halves := lowerbound.RandomHalves(300, 4, 8, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found := lowerbound.FindCollision(sm, halves); !found {
			b.Fatal("no collision")
		}
	}
}

// BenchmarkFullSuite runs the complete experiment report once per
// iteration — the cmd/stbench workload.
func BenchmarkFullSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.All(int64(i + 1)) {
			if len(r.Notes) < 4 || r.Notes[:4] != "PASS" {
				b.Fatalf("%s failed", r.ID)
			}
		}
	}
}
