package experiments

import (
	"math"
	"math/rand"
	"reflect"
	"strings"

	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/relalg"
	"extmem/internal/trials"
	"extmem/internal/xmlstream"
	"extmem/internal/xpath"
	"extmem/internal/xquery"
)

// E6RelAlg reproduces Theorem 11: (a) streaming evaluation of the
// symmetric-difference query within O(log N) scans; (b) its result
// decides SET-EQUALITY (the lower-bound reduction). The experiment
// honors Config.Shards twice over without a table byte depending on
// it: every instance is re-evaluated through the sharded
// relalg.Evaluator at the configured shard count (the shard≡ column
// asserts tuple-for-tuple equality with the single-machine engine),
// and a fleet of random instances decided by the sharded evaluator
// runs on the cfg.launch() trial fleet.
func E6RelAlg(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var b strings.Builder
	row(&b, "%8s %10s %8s %12s %10s %10s %8s", "m", "N", "scans", "scans/log2N", "Q' empty", "X = Y?", "shard≡")
	notes := "PASS: O(log N) scans; Q' emptiness ≡ set equality on every instance;\n" +
		"sharded evaluation byte-identical on every instance and every fleet trial."
	q := relalg.SymmetricDifference("R1", "R2")
	for i, mSize := range []int{8, 32, 128, 512} {
		var in problems.Instance
		if i%2 == 0 {
			in = problems.GenSetYes(mSize, 12, rng)
		} else {
			in = problems.GenSetNo(mSize, 12, rng)
		}
		db := relalg.InstanceDB(in)
		m := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
		r, err := relalg.EvalST(q, db, m)
		m.Close()
		if err != nil {
			return failure("E6", "T11-RELALG", err, core.Reject)
		}
		sm := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
		sharded, err := cfg.transported(relalg.Evaluator{
			Shards: cfg.ShardCount(), Seed: cfg.Seed,
			Retry: cfg.Retry, Inject: cfg.Faults.ShardInject(),
			TapeOpts: cfg.Storage,
		}).EvalST(cfg.ctx(), q, db, sm)
		sm.Close()
		if err != nil {
			return failure("E6", "T11-RELALG", err, core.Reject)
		}
		same := reflect.DeepEqual(sharded.Tuples, r.Tuples)
		res := m.Resources()
		n := db.Size()
		empty := len(r.Tuples) == 0
		want := problems.SetEquality(in)
		row(&b, "%8d %10d %8d %12.2f %10v %10v %8v",
			mSize, n, res.Scans(), float64(res.Scans())/math.Log2(float64(n)), empty, want, same)
		if empty != want {
			notes = "FAIL: Q' result disagrees with set equality."
		}
		if !same {
			notes = "FAIL: sharded evaluation differs from the single-machine engine."
		}
		if float64(res.Scans()) > 40*math.Log2(float64(n)) {
			notes = "FAIL: scans not O(log N)."
		}
	}
	// Sharded-query fleet: random instances decided by Q' emptiness on
	// the sharded evaluator, run as a cfg.launch() trial fleet — every
	// trial derives from (seed, global index) alone, so the row is
	// byte-identical at any Shards × Parallel.
	nTrials := cfg.fleet(24)
	shards := cfg.ShardCount()
	_, sum, err := cfg.launch()(nTrials, trials.Seed(cfg.Seed, 600), nil).Run(cfg.ctx(),
		func(i int, trng *rand.Rand) trials.Result {
			var fin problems.Instance
			if i%2 == 0 {
				fin = problems.GenSetYes(8, 10, trng)
			} else {
				fin = problems.GenSetNo(8, 10, trng)
			}
			fdb := relalg.InstanceDB(fin)
			ev := relalg.Evaluator{Shards: shards, Seed: trng.Int63(), TapeOpts: cfg.Storage}
			fm := cfg.machine(relalg.NumQueryTapes, trng.Int63())
			defer fm.Close()
			fr, err := ev.EvalST(nil, q, fdb, fm)
			if err != nil {
				return trials.Result{Err: err.Error()}
			}
			return trials.Result{Accept: (len(fr.Tuples) == 0) == problems.SetEquality(fin)}
		})
	if err != nil {
		return failure("E6", "T11-RELALG", err, core.Reject)
	}
	row(&b, "sharded-query fleet: %d/%d random instances decided correctly", sum.Accepts, sum.Trials)
	if sum.Accepts != sum.Trials {
		notes = "FAIL: a sharded fleet trial disagreed with set equality."
	}
	return Result{
		ID:    "E6",
		Title: "relational algebra on streams",
		Claim: "Theorem 11: every query ∈ ST(O(log N),O(1),O(1)); Q' = (R1−R2) ∪ (R2−R1) is Ω(log N)-hard",
		Table: b.String(),
		Notes: notes,
	}
}

// E7XQuery reproduces Theorem 12: the every/some query decides
// SET-EQUALITY on the Section 4 XML encoding. Beyond the fixed-size
// sweep, a fleet of random instances runs on the cfg.launch() trial
// fleet (Config.Shards shards × Config.Parallel workers), each trial
// checking the query verdict against the reference decider — the
// query workload on the sharded execution layer, with rows derived
// from (seed, global trial index) alone.
func E7XQuery(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	q := xquery.TheoremQuery()
	var b strings.Builder
	row(&b, "%8s %12s %14s %12s %8s", "m", "doc bytes", "query <true/>", "set equal", "agree")
	notes := "PASS: Q returns <true/> exactly on set-equal instances (reduction of Theorem 12)."
	for i, mSize := range []int{4, 16, 64, 256} {
		var in problems.Instance
		if i%2 == 0 {
			in = problems.GenSetYes(mSize, 10, rng)
		} else {
			in = problems.GenSetNo(mSize, 10, rng)
		}
		enc := xmlstream.EncodeInstance(in)
		doc, err := xmlstream.Parse(enc)
		if err != nil {
			return failure("E7", "T12-XQUERY", err, core.Reject)
		}
		result, err := q.Eval(doc)
		if err != nil {
			return failure("E7", "T12-XQUERY", err, core.Reject)
		}
		got := xquery.ResultIsTrue(result)
		want := problems.SetEquality(in)
		row(&b, "%8d %12d %14v %12v %8v", mSize, len(enc), got, want, got == want)
		if got != want {
			notes = "FAIL: query disagrees with set equality."
		}
	}
	// Random-instance agreement fleet on the sharded execution layer.
	nTrials := cfg.fleet(32)
	_, sum, err := cfg.launch()(nTrials, trials.Seed(cfg.Seed, 700), nil).Run(cfg.ctx(),
		func(i int, trng *rand.Rand) trials.Result {
			var fin problems.Instance
			if i%2 == 0 {
				fin = problems.GenSetYes(8, 10, trng)
			} else {
				fin = problems.GenSetNo(8, 10, trng)
			}
			doc, err := xmlstream.Parse(xmlstream.EncodeInstance(fin))
			if err != nil {
				return trials.Result{Err: err.Error()}
			}
			result, err := q.Eval(doc)
			if err != nil {
				return trials.Result{Err: err.Error()}
			}
			return trials.Result{Accept: xquery.ResultIsTrue(result) == problems.SetEquality(fin)}
		})
	if err != nil {
		return failure("E7", "T12-XQUERY", err, core.Reject)
	}
	row(&b, "query fleet: %d/%d random instances decided correctly", sum.Accepts, sum.Trials)
	if sum.Accepts != sum.Trials {
		notes = "FAIL: a fleet trial disagreed with set equality."
	}
	return Result{
		ID:    "E7",
		Title: "XQuery on XML document streams",
		Claim: "Theorem 12: an XQuery query whose evaluation ∉ LasVegas-RST(o(log N), O(N^¼/log N), O(1))",
		Table: b.String(),
		Notes: notes,
	}
}

// E8XPath reproduces Theorem 13: the Figure 1 query selects X − Y,
// and the two-run booster T̃ turns any profile-(1)/(2) filter into a
// one-sided-error SET-EQUALITY decider.
// The noisy-filter probability check runs two trial fleets (yes- and
// no-instances) on the sharded fleet layer, so the acceptance counts
// are reproducible at any cfg.Parallel and cfg.Shards.
func E8XPath(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var b strings.Builder
	row(&b, "%8s %12s %10s %12s", "m", "|X − Y|", "filter", "boosted=eq")
	notes := "PASS: Figure 1 query computes X − Y; boosted T̃ decides set equality with zero false accepts."
	for i, mSize := range []int{4, 16, 64} {
		var in problems.Instance
		if i%2 == 0 {
			in = problems.GenSetYes(mSize, 10, rng)
		} else {
			in = problems.GenSetNo(mSize, 10, rng)
		}
		doc, err := xmlstream.Parse(xmlstream.EncodeInstance(in))
		if err != nil {
			return failure("E8", "T13-XPATH", err, core.Reject)
		}
		sel := xpath.Figure1Query().Select(doc)
		boosted := xpath.SetEqualityViaFilter(xpath.ExactFilter, in, rng)
		want := problems.SetEquality(in)
		row(&b, "%8d %12d %10v %12v", mSize, len(sel), len(sel) > 0, boosted == want)
		if boosted != want {
			notes = "FAIL: boosted decider disagrees with set equality."
		}
	}
	// Noisy-filter probability check (profile (2) with p = 1/2), as
	// two independent trial fleets.
	noisy := xpath.NoisyFilter(xpath.ExactFilter, 0.5)
	yes := problems.GenSetYes(8, 10, rng)
	nTrials := cfg.fleet(400)
	launch := cfg.launch()
	_, yesSum, err := launch(nTrials, trials.Seed(cfg.Seed, 800), nil).Run(cfg.ctx(),
		func(_ int, trng *rand.Rand) trials.Result {
			return trials.Result{Accept: xpath.SetEqualityViaFilter(noisy, yes, trng)}
		})
	if err != nil {
		return failure("E8", "T13-XPATH", err, core.Reject)
	}
	_, noSum, err := launch(nTrials, trials.Seed(cfg.Seed, 801), nil).Run(cfg.ctx(),
		func(_ int, trng *rand.Rand) trials.Result {
			no := problems.GenSetNo(8, 10, trng)
			return trials.Result{Accept: xpath.SetEqualityViaFilter(noisy, no, trng)}
		})
	if err != nil {
		return failure("E8", "T13-XPATH", err, core.Reject)
	}
	row(&b, "noisy filter: yes accepted %d/%d (want ≥ 1/2), no accepted %d/%d (want 0)",
		yesSum.Accepts, yesSum.Trials, noSum.Accepts, noSum.Trials)
	if yesSum.Accepts < yesSum.Trials/2 || noSum.Accepts > 0 {
		notes = "FAIL: booster probability profile violated."
	}
	notes += "\nNote: the paper's proof boosts with 2 rounds of T̃, giving only 1−(3/4)² = 7/16;" +
		"\nwe use 3 rounds for the stated ≥ 1/2 (see internal/xpath/booster.go)."
	return Result{
		ID:    "E8",
		Title: "XPath filtering and the booster machine T̃",
		Claim: "Theorem 13: filtering with the Figure 1 query ∉ co-RST(o(log N), O(N^¼/log N), O(1))",
		Table: b.String(),
		Notes: notes,
	}
}
