package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"extmem/internal/core"
	"extmem/internal/plan"
	"extmem/internal/problems"
	"extmem/internal/relalg"
)

// E21CostPlanner tables the cost-based planner against the fixed
// execution shapes of the E19 grid, on the same Theorem 11 workload:
// the planner (internal/plan) predicts each operator stage's critical
// path from the measured sorter's analytic model and picks the shape
// minimizing it under a resource envelope, with the merge-free
// pipelined handoff always on. Three claims are measured:
//
//   - the planned evaluation's end-to-end step count (coordinator plus
//     every stage's critical path) beats or matches the best fixed
//     shape of the grid inside the same envelope, on every row;
//   - the pipelined handoff alone cuts the end-to-end steps of a
//     multi-stage plan (the union of two scans) by at least 15% at an
//     identical fixed shape — one full write+read of every
//     intermediate relation is gone;
//   - the model's predicted critical path stays within 25% of the
//     meter across every operator sort of the grid.
//
// The envelopes are swept internally and never rendered as numbers
// derived from the -budget flag, so the table is byte-identical at
// any configured budget; one extra verification runs under the
// configured envelope so the knob is genuinely exercised.
func E21CostPlanner(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := problems.GenSetNo(512, 16, rng)
	db := relalg.InstanceDB(in)
	q := relalg.SymmetricDifference("R1", "R2")
	const runMem = 256

	base := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
	defer base.Close()
	baseRel, err := relalg.Evaluator{RunMemoryBits: runMem, TapeOpts: cfg.Storage}.EvalST(cfg.ctx(), q, db, base)
	if err != nil {
		return failure("E21", "COST-PLAN", err, core.Reject)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Cost-based planning: Q' = (R1−R2) ∪ (R2−R1), m=%d (N=%d); fixed shapes at run memory %d bits\n",
		512, db.Size(), runMem)
	notes := "PASS: the planned shape beats or matches every fixed shape of its envelope, the pipelined\n" +
		"handoff cuts ≥15% of the end-to-end steps at an equal shape, predictions stay within 25%\n" +
		"of the meter, and not one output byte moves under any of it."

	// The fixed-shape grid: the E19 shapes, end-to-end steps.
	row(&b, "%6s %7s %12s %11s %9s", "fan-in", "shards", "total steps", "crit steps", "output≡")
	bestFixed := int64(-1)
	var worstPredErr float64
	for _, fanIn := range []int{2, 4} {
		for _, shards := range []int{1, 2, 4} {
			rep := &relalg.QueryReport{}
			ev := relalg.Evaluator{
				Shards: shards, FanIn: fanIn, RunMemoryBits: runMem,
				Seed: cfg.Seed, Report: rep,
				Retry: cfg.Retry, Inject: cfg.Faults.ShardInject(),
				TapeOpts: cfg.Storage,
			}
			m := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
			r, err := ev.EvalST(cfg.ctx(), q, db, m)
			m.Close()
			if err != nil {
				return failure("E21", "COST-PLAN", err, core.Reject)
			}
			equal := reflect.DeepEqual(r.Tuples, baseRel.Tuples)
			total := rep.TotalSteps()
			row(&b, "%6d %7d %12d %11d %9v", fanIn, shards, total, rep.CriticalPathSteps(), equal)
			if !equal {
				notes = "FAIL: a fixed-shape evaluation differs from the single-machine engine."
			}
			if bestFixed < 0 || total < bestFixed {
				bestFixed = total
			}
			for _, sr := range rep.Sorts {
				measured := sr.CriticalPathSteps()
				if measured == 0 {
					continue
				}
				shape := plan.Shape{Shards: shards, FanIn: fanIn, RunMemoryBits: runMem}
				predicted := plan.PredictSort(sr.Items, sr.Bytes, shape).CriticalPath()
				e := float64(predicted-measured) / float64(measured)
				if e < 0 {
					e = -e
				}
				if e > worstPredErr {
					worstPredErr = e
				}
			}
		}
	}

	// The planner inside the grid's envelope (the fixed shapes' memory,
	// tapes for fan-in ≤ 4, fleets up to 4): its end-to-end steps must
	// beat or match the best fixed shape — it may pick any of those
	// shapes, and it also pipelines.
	envelope := plan.Budget{MemoryBits: runMem, Tapes: 6, MaxShards: 4}
	prep := &relalg.QueryReport{}
	pm := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
	defer pm.Close()
	planned, err := relalg.Evaluator{
		Plan: plan.Auto(envelope), Seed: cfg.Seed, Report: prep,
		Retry: cfg.Retry, Inject: cfg.Faults.ShardInject(),
		TapeOpts: cfg.Storage,
	}.EvalST(cfg.ctx(), q, db, pm)
	if err != nil {
		return failure("E21", "COST-PLAN", err, core.Reject)
	}
	plannedEq := reflect.DeepEqual(planned.Tuples, baseRel.Tuples)
	fmt.Fprintf(&b, "\nplanned (grid envelope): total steps %d vs best fixed %d (%.1f%% of best), output≡ %v\n",
		prep.TotalSteps(), bestFixed, 100*float64(prep.TotalSteps())/float64(bestFixed), plannedEq)
	if !plannedEq {
		notes = "FAIL: the planned evaluation differs from the single-machine engine."
	}
	if prep.TotalSteps() > bestFixed {
		notes = "FAIL: the planned shape lost to a fixed shape inside its own envelope."
	}

	// Wider envelopes: more memory and tapes buy fewer steps; every
	// envelope's answer is still byte-identical.
	row(&b, "\n%28s %12s %9s", "envelope", "total steps", "output≡")
	prevTotal := int64(-1)
	widening := []struct {
		name string
		bud  plan.Budget
	}{
		{"starved (1 shard, 4 tapes)", plan.Budget{MemoryBits: 128, Tapes: 4, MaxShards: 1}},
		{"grid (4 shards, 6 tapes)", envelope},
		{"generous (8 shards, 12 t)", plan.Budget{MemoryBits: 1 << 14, Tapes: 12, MaxShards: 8}},
	}
	for _, w := range widening {
		rep := &relalg.QueryReport{}
		m := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
		r, err := relalg.Evaluator{
			Plan: plan.Auto(w.bud), Seed: cfg.Seed, Report: rep,
			Retry: cfg.Retry, Inject: cfg.Faults.ShardInject(),
			TapeOpts: cfg.Storage,
		}.EvalST(cfg.ctx(), q, db, m)
		m.Close()
		if err != nil {
			return failure("E21", "COST-PLAN", err, core.Reject)
		}
		equal := reflect.DeepEqual(r.Tuples, baseRel.Tuples)
		row(&b, "%28s %12d %9v", w.name, rep.TotalSteps(), equal)
		if !equal {
			notes = "FAIL: a planned evaluation differs from the single-machine engine."
		}
		if prevTotal >= 0 && rep.TotalSteps() > prevTotal {
			notes = "FAIL: a wider envelope cost more end-to-end steps than a narrower one."
		}
		prevTotal = rep.TotalSteps()
	}

	// The pipelined handoff in isolation: the union of two scans at one
	// fixed shape, staged vs merge-free. The handoff deletes the
	// producers' combines, the coordinator's concatenation and the
	// consumer's distribution scan — at least 15% of the end-to-end
	// steps on this two-stage plan.
	union := relalg.Union{L: relalg.Scan{Rel: "R1"}, R: relalg.Scan{Rel: "R2"}}
	pipeTotals := make([]int64, 2)
	for i, pipeline := range []bool{false, true} {
		rep := &relalg.QueryReport{}
		m := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
		r, err := relalg.Evaluator{
			Shards: 2, RunMemoryBits: runMem, Pipeline: pipeline,
			Seed: cfg.Seed, Report: rep,
			Retry: cfg.Retry, Inject: cfg.Faults.ShardInject(),
			TapeOpts: cfg.Storage,
		}.EvalST(cfg.ctx(), union, db, m)
		m.Close()
		if err != nil {
			return failure("E21", "COST-PLAN", err, core.Reject)
		}
		pipeTotals[i] = rep.TotalSteps()
		if i == 1 {
			sm := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
			staged, err := relalg.Evaluator{Shards: 2, RunMemoryBits: runMem, Seed: cfg.Seed, TapeOpts: cfg.Storage}.
				EvalST(cfg.ctx(), union, db, sm)
			sm.Close()
			if err != nil {
				return failure("E21", "COST-PLAN", err, core.Reject)
			}
			if !reflect.DeepEqual(r.Tuples, staged.Tuples) {
				notes = "FAIL: the pipelined union differs from the staged one."
			}
		}
	}
	cut := 100 * float64(pipeTotals[0]-pipeTotals[1]) / float64(pipeTotals[0])
	fmt.Fprintf(&b, "\npipelined handoff on R1 ∪ R2 (2 shards): staged %d steps → pipelined %d steps (−%.1f%%)\n",
		pipeTotals[0], pipeTotals[1], cut)
	if cut < 15 {
		notes = "FAIL: the pipelined handoff cut less than 15% of the end-to-end steps."
	}

	fmt.Fprintf(&b, "worst sort prediction error across the grid: %.1f%% (bound 25%%)\n", 100*worstPredErr)
	if worstPredErr > 0.25 {
		notes = "FAIL: a sort prediction missed the meter by more than 25%."
	}

	// The configured envelope, exercised for real: one more planned
	// evaluation under -budget (or the grid envelope when unset) must
	// reproduce the same bytes. Only the equality is rendered, so the
	// table cannot depend on the configured values.
	cfgBudget := envelope
	if cfg.Budget != nil {
		cfgBudget = *cfg.Budget
	}
	cm := cfg.machine(relalg.NumQueryTapes, cfg.Seed)
	defer cm.Close()
	cfgRel, err := cfg.transported(relalg.Evaluator{
		Plan: plan.Auto(cfgBudget), Seed: cfg.Seed,
		Retry: cfg.Retry, Inject: cfg.Faults.ShardInject(),
		TapeOpts: cfg.Storage,
	}).EvalST(cfg.ctx(), q, db, cm)
	if err != nil {
		return failure("E21", "COST-PLAN", err, core.Reject)
	}
	cfgEqual := reflect.DeepEqual(cfgRel.Tuples, baseRel.Tuples)
	fmt.Fprintf(&b, "\nconfigured-budget run: output ≡ single machine: %v\n", cfgEqual)
	if !cfgEqual {
		notes = "FAIL: the configured-budget evaluation differs from the single-machine engine."
	}

	return Result{
		ID:    "E21",
		Title: "cost-based query planning on the measured frontier",
		Claim: "the analytic sorter model predicts the meter; minimizing predicted critical path per stage beats every fixed shape in-envelope without moving a byte",
		Table: b.String(),
		Notes: notes,
	}
}
