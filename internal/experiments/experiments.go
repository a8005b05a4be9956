package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/faults"
	"extmem/internal/plan"
	"extmem/internal/problems"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/tape"
	"extmem/internal/transport"
	"extmem/internal/trials"
)

// Config parameterizes one run of the experiment suite.
type Config struct {
	Seed     int64 // root seed; all randomness (instances and machine coins) derives from it
	Trials   int   // Monte-Carlo fleet size per experiment side; 0 = per-experiment default
	Parallel int   // trial workers per shard; <= 0 = GOMAXPROCS. Never affects output bytes.
	Shards   int   // trial-fleet shards (internal/shard); <= 0 = 1. Never affects output bytes.

	// Ctx bounds every trial fleet and sharded sort of the run; nil
	// means no bound.
	Ctx context.Context

	// Faults is the chaos plan injected into every trial fleet (trial
	// indices as fault sites) and every sharded operator sort (shard
	// indices as fault sites) of the run. The zero plan is fault-free;
	// a recoverable plan (flaky panics, delays) under a sufficient
	// Retry budget never changes an output byte.
	Faults faults.Plan

	// Retry is the per-shard retry budget trial fleets and sharded
	// sorts run under; the zero policy attempts each shard once.
	Retry shard.RetryPolicy

	// Budget, when non-nil, is the resource envelope the cost-based
	// planner (internal/plan) runs the configured-budget verification
	// rows of E21 under: every operator stage's execution shape is
	// chosen per stage by predicted critical path. Like Shards and
	// Parallel it never affects output bytes — the planner may move the
	// shape, never a byte — and the tables never render its values, so
	// reports stay byte-identical at any -budget.
	Budget *plan.Budget

	// Storage selects the tape storage backend of every machine the run
	// constructs — experiment machines, shard-local machines, combine
	// machines. The zero value keeps the tapes in memory. Like Shards
	// and Parallel it is pure execution shape: the backend may move the
	// bytes' home, never a count, so reports stay byte-identical at any
	// -storage.
	Storage tape.Options

	// Transport, when non-nil, is the shard transport
	// (internal/transport): the rows that run at the configured shape
	// send their shard attempts to worker processes (`-transport proc`)
	// or TCP workers (`-transport tcp -workers host:port,...`). Those
	// are every trial fleet whose workload carries a wire form, and the
	// sorts and scans of E6's sharded evaluation, E19's configured-shard
	// run and E21's configured-budget run. Fleets with no wire form —
	// closures over live state, chaos-wrapped fleets — keep running
	// in-process, and the sweeps and fixed grids of E18–E21 pin their
	// own executor. Like every other execution shape, it never affects
	// output bytes.
	Transport transport.Transport
}

// machine builds an experiment machine on the configured tape storage.
func (c Config) machine(t int, seed int64) *core.Machine {
	return core.NewMachineOpts(t, seed, c.Storage)
}

// ctx is the run's bounding context (Background when unset).
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// fleet resolves the fleet size against an experiment's default.
func (c Config) fleet(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	return def
}

// ShardCount is the effective trial-fleet shard count.
func (c Config) ShardCount() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return 1
}

// launch builds the sharded fleet launcher every Monte-Carlo
// experiment runs on, its shard attempts on the configured transport's
// workers when there is one: per-trial results are pure functions of
// (seed, global trial index), so neither Shards nor Parallel — nor the
// transport, nor a recoverable fault plan under the retry budget — can
// change a table byte.
func (c Config) launch() trials.Launcher {
	var attempt shard.AttemptFunc
	if c.Transport != nil {
		attempt = c.Transport.Attempt()
	}
	return c.Faults.Trials(shard.LaunchRetry(c.ShardCount(), c.Parallel, c.Retry, attempt))
}

// transported returns ev with both of its shard seams, operator sorts
// (Exec) and operator scans (ExecScan), on the configured transport's
// workers; without a transport ev is returned unchanged, and its shard
// attempts run in-process.
func (c Config) transported(ev relalg.Evaluator) relalg.Evaluator {
	if c.Transport != nil {
		ev.Exec, ev.ExecScan = c.Transport.Exec(), c.Transport.ExecScan()
	}
	return ev
}

// proc is the transport the E18/E19/E20 internal sweeps run their
// process-boundary rows on: the configured one when it is a pipe
// transport, a default self-exec transport otherwise — the rows exist
// in every run, so the tables stay byte-identical whether or not
// -transport proc is on.
func (c Config) proc() *transport.Proc {
	if p, ok := c.Transport.(*transport.Proc); ok {
		return p
	}
	return &transport.Proc{}
}

// probeLaunch is the launcher for the E16 collision probes: nil —
// selecting FindCollisionParallel's early-exiting sequential scan —
// when the configured shape is a single worker on a single shard,
// the sharded fleet otherwise. The collision found is identical
// either way; only the amount of probing work differs.
func (c Config) probeLaunch() trials.Launcher {
	workers := c.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if c.ShardCount() == 1 && workers == 1 {
		return nil
	}
	return c.launch()
}

// Result is the outcome of one experiment.
type Result struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Claim string `json:"claim"` // the paper claim being reproduced
	Table string `json:"table"` // formatted rows
	Notes string `json:"notes"` // observations / pass-fail summary

	// Shards records how many trial-fleet shards executed the run —
	// execution provenance only. It is reported in machine-readable
	// encodings (stbench JSON/CSV) but never rendered into Table,
	// Notes or String(), which stay byte-identical at every shard
	// count.
	Shards int `json:"shards"`
}

// Passed reports whether the experiment reproduced its claim.
func (r Result) Passed() bool { return strings.HasPrefix(r.Notes, "PASS") }

// String renders the result as a report section.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "claim: %s\n\n", r.Claim)
	b.WriteString(r.Table)
	if r.Notes != "" {
		fmt.Fprintf(&b, "\n%s\n", r.Notes)
	}
	return b.String()
}

// row formats one table line.
func row(b *strings.Builder, format string, args ...any) {
	fmt.Fprintf(b, format+"\n", args...)
}

// A Runner is one named experiment of the suite; cmd/stbench iterates
// them so it can stream each report as it completes.
type Runner struct {
	ID  string
	Run func(Config) Result
}

// Runners lists the full E1–E21 suite in order.
func Runners() []Runner {
	return []Runner{
		{"E1", E1DeterministicUpperBound},
		{"E2", E2Fingerprint},
		{"E3", E3NSTVerifier},
		{"E4", E4Separation},
		{"E5", E5Sort},
		{"E6", E6RelAlg},
		{"E7", E7XQuery},
		{"E8", E8XPath},
		{"E9", E9Sortedness},
		{"E10", E10Simulation},
		{"E11", E11Counting},
		{"E12", E12MergeLemma},
		{"E13", E13RunLength},
		{"E14", E14PrimeCollision},
		{"E15", E15ShortReduction},
		{"E16", E16Adversary},
		{"E17", E17SortTradeoff},
		{"E18", E18ShardedExecution},
		{"E19", E19ShardedQueries},
		{"E20", E20FaultTolerance},
		{"E21", E21CostPlanner},
	}
}

// All runs every experiment with the given seed and default fleet
// sizes and parallelism.
func All(seed int64) []Result { return AllConfig(Config{Seed: seed}) }

// AllConfig runs every experiment under cfg.
func AllConfig(cfg Config) []Result {
	var out []Result
	for _, r := range Runners() {
		res := r.Run(cfg)
		res.Shards = cfg.ShardCount()
		out = append(out, res)
	}
	return out
}

// E1DeterministicUpperBound reproduces Corollary 7's upper bound:
// the sort-based deciders run in O(log N) scans with item-sized
// internal memory. The table sweeps N and reports scans / log₂N.
func E1DeterministicUpperBound(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var b strings.Builder
	row(&b, "%10s %10s %8s %10s %14s %12s", "m", "N", "scans", "log2(N)", "scans/log2N", "mem bits")
	ok := true
	for _, mSize := range []int{8, 32, 128, 512, 2048, 8192} {
		in := problems.GenMultisetYes(mSize, 16, rng)
		n := in.Size()
		m := cfg.machine(algorithms.NumDeciderTapes, cfg.Seed)
		m.SetInput(in.Encode())
		v, err := algorithms.MultisetEqualityST(m)
		m.Close()
		if err != nil || v != core.Accept {
			return failure("E1", "C7-UPPER", err, v)
		}
		res := m.Resources()
		ratio := float64(res.Scans()) / math.Log2(float64(n))
		row(&b, "%10d %10d %8d %10.1f %14.2f %12d",
			mSize, n, res.Scans(), math.Log2(float64(n)), ratio, res.PeakMemoryBits)
		if ratio > 30 {
			ok = false
		}
	}
	notes := "PASS: scans grow as O(log N): run formation absorbs the first ~log₂(runLen) merge passes,\n" +
		"then each sort pays ⌈log₄⌉ four-way passes; memory is the constant run buffer plus counters."
	if !ok {
		notes = "FAIL: scans exceed 30·log2(N)."
	}
	return Result{
		ID:    "E1",
		Title: "deterministic upper bound (tape merge sort)",
		Claim: "Corollary 7: (MULTI)SET-EQUALITY, CHECK-SORT ∈ ST(O(log N), O(1), O(1))",
		Table: b.String(),
		Notes: notes,
	}
}

// E2Fingerprint reproduces Theorem 8(a): the fingerprint decider uses
// exactly 2 scans and O(log N) memory, never rejects equal multisets,
// and accepts distinct ones with small probability. The per-size
// error profile is measured by a parallel trial fleet
// (algorithms.EstimateFingerprintErrors) and reported with the Wilson
// 95% interval on the false-accept rate.
func E2Fingerprint(cfg Config) Result {
	var b strings.Builder
	row(&b, "%8s %10s %7s %10s %12s %16s %20s", "m", "N", "scans", "mem bits", "yes-errors", "false-accepts", "false-acc 95% CI")
	notes := "PASS: 2 scans, O(log N) bits, perfect completeness, false-accept rate ≪ 1/2."
	for i, mSize := range []int{8, 64, 512} {
		est, err := algorithms.EstimateFingerprintErrors(cfg.ctx(),
			mSize, 12, cfg.fleet(60), cfg.launch(), trials.Seed(cfg.Seed, 200+i))
		if err != nil {
			return failure("E2", "T8A-FP", err, core.Reject)
		}
		row(&b, "%8d %10d %7d %10d %10d/%d %14d/%d    [%.3f, %.3f]",
			mSize, est.Size, est.Scans, est.MemBits,
			est.YesErrors, est.Trials, est.FalseAccepts, est.Trials,
			est.FalseAcceptLo, est.FalseAcceptHi)
		if est.YesErrors > 0 || est.Scans != 2 || est.FalseAccepts > est.Trials/2 {
			notes = "FAIL: error profile violated."
		}
	}
	return Result{
		ID:    "E2",
		Title: "randomized fingerprinting (one-sided error)",
		Claim: "Theorem 8(a): MULTISET-EQUALITY ∈ co-RST(2, O(log N), 1)",
		Table: b.String(),
		Notes: notes,
	}
}

// E3NSTVerifier reproduces Theorem 8(b): certificate verification in
// 3 scans on 2 tapes with O(log N) memory, for all three problems.
func E3NSTVerifier(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var b strings.Builder
	row(&b, "%22s %6s %7s %7s %10s %8s", "problem", "m", "scans", "tapes", "mem bits", "verdict")
	notes := "PASS: ≤ 3 scans, 2 tapes, O(log N) memory; yes accepted, no rejected."
	cases := []struct {
		p   algorithms.NSTProblem
		gen func() problems.Instance
	}{
		{algorithms.NSTMultisetEquality, func() problems.Instance { return problems.GenMultisetYes(6, 4, rng) }},
		{algorithms.NSTSetEquality, func() problems.Instance { return problems.GenSetYes(6, 6, rng) }},
		{algorithms.NSTCheckSort, func() problems.Instance { return problems.GenCheckSortYes(5, 4, rng) }},
	}
	for _, c := range cases {
		in := c.gen()
		m := cfg.machine(2, cfg.Seed)
		m.SetInput(in.Encode())
		v, err := algorithms.DecideNST(c.p, m, in)
		m.Close()
		if err != nil {
			return failure("E3", "T8B-NST", err, v)
		}
		res := m.Resources()
		row(&b, "%22s %6d %7d %7d %10d %8s", c.p, in.M(), res.Scans(), res.Tapes, res.PeakMemoryBits, v)
		if v != core.Accept || res.Scans() > 3 || res.Tapes != 2 {
			notes = "FAIL: NST resource bound violated."
		}
	}
	return Result{
		ID:    "E3",
		Title: "nondeterministic certificate verification",
		Claim: "Theorem 8(b): all three problems ∈ NST(3, O(log N), 2)",
		Table: b.String(),
		Notes: notes,
	}
}

// E4Separation reproduces Corollary 9's separation as a series: the
// deterministic decider needs Θ(log N) scans while the co-randomized
// fingerprint needs exactly 2, at every input size.
func E4Separation(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var b strings.Builder
	row(&b, "%8s %10s %18s %14s %12s", "m", "N", "ST scans (det)", "co-RST scans", "separation")
	notes := "PASS: constant-scan randomized vs Θ(log N) deterministic — the Corollary 9 gap."
	for _, mSize := range []int{8, 64, 512, 4096} {
		in := problems.GenMultisetYes(mSize, 12, rng)
		det := cfg.machine(algorithms.NumDeciderTapes, cfg.Seed)
		det.SetInput(in.Encode())
		_, err := algorithms.MultisetEqualityST(det)
		det.Close()
		if err != nil {
			return failure("E4", "C9-SEP", err, core.Reject)
		}
		fp := cfg.machine(1, cfg.Seed)
		fp.SetInput(in.Encode())
		_, _, err = algorithms.FingerprintMultisetEquality(fp)
		fp.Close()
		if err != nil {
			return failure("E4", "C9-SEP", err, core.Reject)
		}
		d, f := det.Resources().Scans(), fp.Resources().Scans()
		row(&b, "%8d %10d %18d %14d %11.1fx", mSize, in.Size(), d, f, float64(d)/float64(f))
		if f != 2 {
			notes = "FAIL: fingerprint used more than 2 scans."
		}
	}
	return Result{
		ID:    "E4",
		Title: "deterministic vs randomized scan counts",
		Claim: "Corollary 9: ST ⊊ RST ⊊ NST and RST ≠ co-RST in the o(log N) regime",
		Table: b.String(),
		Notes: notes,
	}
}

// E5Sort reproduces Corollary 10's sorting side: the Las Vegas sorter
// succeeds exactly when its scan budget reaches Θ(log N). Each size
// runs a small fleet of independent attempts (Las Vegas repetition on
// the trials engine); the table reports accepts/attempts.
func E5Sort(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var b strings.Builder
	row(&b, "%8s %10s %14s %16s %10s", "m", "N", "scans needed", "budget log2(N)?", "attempts")
	notes := "PASS: the success threshold tracks Θ(log N) — below it the sorter answers \"don't know\"."
	for i, mSize := range []int{8, 64, 512, 4096} {
		in := problems.GenMultisetYes(mSize, 12, rng)
		res, sum, err := algorithms.SortLasVegasRepeated(cfg.ctx(),
			in.Encode(), 6, 1, 1<<30,
			cfg.fleet(2), cfg.launch(), trials.Seed(cfg.Seed, 500+i))
		if err != nil {
			return failure("E5", "C10-SORT", err, res.Verdict)
		}
		needed := res.Resources.Scans()
		logN := int(math.Log2(float64(in.Size())))
		within := needed <= 10*logN
		row(&b, "%8d %10d %14d %16v %7d/%d", mSize, in.Size(), needed, within, sum.Accepts, sum.Trials)
		if !within {
			notes = "FAIL: sorting needed more than 10·log2(N) scans."
		} else if res.Verdict != core.Accept {
			notes = "FAIL: every Las Vegas attempt answered \"I don't know\"."
		}
	}
	return Result{
		ID:    "E5",
		Title: "Las Vegas external sorting",
		Claim: "Corollary 10: sorting ∉ LasVegas-RST(o(log N), O(N^¼/log N), O(1)); Θ(log N) scans suffice",
		Table: b.String(),
		Notes: notes,
	}
}

// E17SortTradeoff measures the r-vs-(s, t) trade-off of the k-way
// sort engine on one fixed input: the same 512-item instance is
// sorted at every (fan-in, run-formation memory) point of a small
// grid, and the measured scan count falls as either resource grows —
// the two axes the ST(r, s, t) model trades against each other
// (Definition 1; Corollary 7's merge sort generalized). Run-formation
// memory s shortens the pass chain by starting from ⌊s/itemBits⌋-item
// runs; fan-in k = t−2 turns ⌈log₂⌉ passes into ⌈log_k⌉.
func E17SortTradeoff(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := problems.GenMultisetYes(256, 16, rng) // 512 items of 16 bits
	enc := in.Encode()
	var b strings.Builder
	fanIns := []int{2, 4, 8}
	mems := []int64{0, 1024, 8192}
	row(&b, "%6s %6s | %28s | %28s", "fan-in", "tapes", "scans @ run mem 0/1024/8192", "peak bits @ run mem 0/1024/8192")
	scans := make(map[[2]int]int)
	notes := "PASS: scans fall along both axes — monotone per row (s), strictly down the s=1024 column (t).\n" +
		"At s=0 the Θ(k) lane rewinds per pass erase the fan-in gain: the trade-off needs both levers,\n" +
		"exactly the r·(s+t) coupling of the paper's lower-bound frontier."
	for _, k := range fanIns {
		var sc [3]int
		var pk [3]int64
		for j, mem := range mems {
			m := cfg.machine(k+2, cfg.Seed)
			m.SetInput(enc)
			s := algorithms.Sorter{FanIn: k, RunMemoryBits: mem}
			err := s.SortToTape(m, 1, algorithms.WorkTapes(m, 1))
			m.Close()
			if err != nil {
				return failure("E17", "ST-TRADEOFF", err, core.Reject)
			}
			res := m.Resources()
			sc[j], pk[j] = res.Scans(), res.PeakMemoryBits
			scans[[2]int{k, int(mem)}] = res.Scans()
		}
		row(&b, "%6d %6d | %8d %8d %8d    | %8d %8d %8d", k, k+2, sc[0], sc[1], sc[2], pk[0], pk[1], pk[2])
		if !(sc[0] >= sc[1] && sc[1] >= sc[2]) {
			notes = "FAIL: scans did not fall as run-formation memory grew."
		}
	}
	// The t axis: at s = 1024 (8-item runs ⇒ 64 initial runs), raising
	// the fan-in 2→4→8 must strictly cut the measured scans.
	if !(scans[[2]int{2, 1024}] > scans[[2]int{4, 1024}] && scans[[2]int{4, 1024}] > scans[[2]int{8, 1024}]) {
		notes = "FAIL: scans did not strictly fall as fan-in grew at fixed run memory."
	}
	return Result{
		ID:    "E17",
		Title: "sort engine r-vs-(s,t) trade-off",
		Claim: "ST(r, s, t) model: reversals trade against internal memory and tape count — k-way merge with memory-budgeted runs realizes the frontier",
		Table: b.String(),
		Notes: notes,
	}
}

func failure(id, title string, err error, v core.Verdict) Result {
	return Result{
		ID:    id,
		Title: title,
		Notes: fmt.Sprintf("FAIL: error %v (verdict %v)", err, v),
	}
}
