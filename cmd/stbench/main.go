// Command stbench runs the full experiment suite of the reproduction
// (E1–E20: one per theorem/lemma of the paper, plus the E17 sort
// r-vs-(s,t) trade-off sweep, the E18/E19 sharded-execution censuses
// for raw sorts and relational queries, and the E20 chaos determinism
// matrix) and prints every table. Monte-Carlo experiments run their
// trial fleets on the sharded execution layer (-shards shards, each a
// -parallel worker pool) with per-trial seeds derived from -seed, and
// the query experiments (E6, E19) additionally re-evaluate their
// relational plans through the sharded relalg.Evaluator at the
// configured shard count, so stdout is byte-identical for a fixed
// seed at any -parallel and any -shards value — and, because
// recoverable faults are just another execution shape, under any
// recoverable -chaos plan.
//
// Usage:
//
//	stbench [-seed N] [-only E7] [-trials N] [-parallel N] [-shards N]
//	        [-transport inproc|proc|tcp] [-workers host:port,...]
//	        [-chaos flaky|delay] [-chaos-rate F]
//	        [-budget BITS] [-budget-tapes N] [-budget-shards N]
//	        [-storage mem|file] [-spill-dir DIR] [-spill-threshold N]
//	        [-format text|json|csv]
//	stbench -serve host:port
//
// The execution flags -parallel, -shards, -transport, -workers,
// -budget, -budget-tapes, -budget-shards, -storage, -spill-dir,
// -spill-threshold and -serve are shared with strun and documented in
// internal/cliflags. Each is pure execution shape, so stdout is
// byte-identical at any of their values. Under -budget, E21 verifies
// the configured envelope's evaluation reproduces the single-machine
// bytes; under -transport, fleets whose trial bodies have no wire form
// keep running in-process.
//
// Formats: text (the human report), json (one JSON object per
// experiment per line), csv (one record per experiment). The json and
// csv encodings carry a shards column recording the execution shape
// (provenance only — the tables never depend on it). Reports stream
// as each experiment completes; progress goes to stderr. SIGINT or
// SIGTERM cancels the run context: in-flight fleets drain, the
// encoder is flushed with a partial-results footer, and stbench exits
// 130. Workers live in their own process group, so a terminal
// interrupt reaches only the coordinator — which then tears the
// workers down through their job contexts.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"extmem/internal/cliflags"
	"extmem/internal/experiments"
	"extmem/internal/faults"
	"extmem/internal/shard"
	"extmem/internal/transport"
)

func main() {
	if transport.IsWorker(os.Args) {
		// A shard worker: no flags, no signal handling. Pipe workers run
		// in their own process group, so terminal signals reach only the
		// coordinator — which owns the partial-results footer and tears
		// workers down through their job contexts; TCP workers
		// (`stbench stworker -listen addr`) install their own handler.
		os.Exit(transport.WorkerMain(os.Args, os.Stdin, os.Stdout, os.Stderr))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// chaosPlan builds the fault plan and retry policy of a -chaos mode.
// Both recoverable modes pin trial/shard site 0 so every fleet and
// every sharded sort provably exercises recovery, plus a seed-keyed
// rate so larger fleets see faults spread across their range:
//
//   - flaky: each struck site panics on its first attempt and heals
//     (faults.Plan.Flaky), so the retry layer re-executes the range
//     and the output bytes cannot move;
//   - delay: struck sites stall briefly — the straggler plan; nothing
//     fails, nothing retries, bytes cannot move either.
func chaosPlan(mode string, seed int64, rate float64) (faults.Plan, shard.RetryPolicy, error) {
	switch mode {
	case "":
		return faults.Plan{}, shard.RetryPolicy{}, nil
	case "flaky":
		return faults.Plan{Seed: seed, Mode: faults.Panic, Rate: rate, Sites: []int{0}, Flaky: 1},
			shard.RetryPolicy{MaxAttempts: 64, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond},
			nil
	case "delay":
		return faults.Plan{Seed: seed, Mode: faults.Delay, Rate: rate, Sites: []int{0}, Delay: 200 * time.Microsecond},
			shard.RetryPolicy{}, nil
	}
	return faults.Plan{}, shard.RetryPolicy{}, fmt.Errorf("unknown -chaos mode %q (want flaky or delay)", mode)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "root seed for all experiments (per-trial seeds derive from it)")
	only := fs.String("only", "", "run a single experiment by id (e.g. E12)")
	trials := fs.Int("trials", 0, "Monte-Carlo fleet size per experiment side (0 = per-experiment default)")
	format := fs.String("format", "text", "output format: text, json or csv")
	chaos := fs.String("chaos", "", "inject a recoverable fault plan: flaky (first-attempt panics) or delay (stragglers); never changes the output")
	chaosRate := fs.Float64("chaos-rate", 0.02, "fraction of fault sites struck by the -chaos plan (site 0 always strikes)")
	ex := cliflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if code, served := ex.Serve(ctx); served {
		return code
	}
	if *trials < 0 {
		fmt.Fprintf(stderr, "stbench: -trials must be >= 0 (got %d)\n", *trials)
		return 2
	}
	if err := ex.Resolve(); err != nil {
		fmt.Fprintln(stderr, "stbench:", err)
		return 2
	}
	// The negated form catches NaN too, which fails every ordered
	// comparison and would sail through `rate < 0 || rate > 1`.
	if !(*chaosRate >= 0 && *chaosRate <= 1) {
		fmt.Fprintf(stderr, "stbench: -chaos-rate must be in [0, 1] (got %g)\n", *chaosRate)
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["chaos"] && set["chaos-rate"] {
		fmt.Fprintln(stderr, "stbench: -chaos-rate requires -chaos")
		return 2
	}
	faultPlan, retry, err := chaosPlan(*chaos, *seed, *chaosRate)
	if err != nil {
		fmt.Fprintln(stderr, "stbench:", err)
		return 2
	}
	cfg := experiments.Config{
		Seed: *seed, Trials: *trials, Parallel: ex.Parallel, Shards: ex.Shards,
		Ctx: ctx, Faults: faultPlan, Retry: retry, Budget: ex.Budget,
		Storage: ex.Tape, Transport: ex.Transport,
	}

	runners := experiments.Runners()
	if *only != "" {
		found := false
		for _, r := range runners {
			if r.ID == *only {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(stderr, "stbench: no experiment matches -only=%s\n", *only)
			return 2
		}
	}

	var emit func(experiments.Result) error
	var footer func(done, total int) error
	var finish func() error
	switch *format {
	case "text":
		fmt.Fprintln(stdout, "Reproduction of: Grohe, Hernich, Schweikardt —")
		fmt.Fprintln(stdout, "\"Randomized Computations on Large Data Sets: Tight Lower Bounds\" (PODS 2006)")
		fmt.Fprintln(stdout)
		emit = func(r experiments.Result) error {
			_, err := fmt.Fprintf(stdout, "%s\n\n", r.String())
			return err
		}
		footer = func(done, total int) error {
			_, err := fmt.Fprintf(stdout, "interrupted — partial results: %d/%d experiments completed\n", done, total)
			return err
		}
		finish = func() error { return nil }
	case "json":
		enc := json.NewEncoder(stdout)
		emit = func(r experiments.Result) error { return enc.Encode(r) }
		footer = func(done, total int) error {
			return enc.Encode(struct {
				Interrupted bool `json:"interrupted"`
				Completed   int  `json:"completed"`
				Total       int  `json:"total"`
			}{true, done, total})
		}
		finish = func() error { return nil }
	case "csv":
		w := csv.NewWriter(stdout)
		if err := w.Write([]string{"id", "title", "claim", "notes", "shards", "table"}); err != nil {
			fmt.Fprintln(stderr, "stbench:", err)
			return 1
		}
		emit = func(r experiments.Result) error {
			return w.Write([]string{r.ID, r.Title, r.Claim, r.Notes, strconv.Itoa(r.Shards), r.Table})
		}
		footer = func(done, total int) error {
			return w.Write([]string{"interrupted", "", "",
				fmt.Sprintf("partial results: %d/%d experiments completed", done, total), "", ""})
		}
		finish = func() error { w.Flush(); return w.Error() }
	default:
		fmt.Fprintf(stderr, "stbench: unknown format %q (want text, json or csv)\n", *format)
		return 2
	}

	total := 0
	for _, r := range runners {
		if *only == "" || r.ID == *only {
			total++
		}
	}
	failed, done := 0, 0
	interrupted := false
	for i, runner := range runners {
		if *only != "" && runner.ID != *only {
			continue
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		fmt.Fprintf(stderr, "stbench: running %s (%d/%d)\n", runner.ID, i+1, len(runners))
		r := runner.Run(cfg)
		if ctx.Err() != nil {
			// The cancellation unwound the experiment mid-flight; its
			// result is an artifact of the interrupt, not a finding.
			interrupted = true
			break
		}
		r.Shards = cfg.ShardCount()
		done++
		if !r.Passed() {
			failed++
		}
		if err := emit(r); err != nil {
			fmt.Fprintln(stderr, "stbench:", err)
			return 1
		}
	}
	if interrupted {
		if err := footer(done, total); err != nil {
			fmt.Fprintln(stderr, "stbench:", err)
			return 1
		}
	}
	if err := finish(); err != nil {
		fmt.Fprintln(stderr, "stbench:", err)
		return 1
	}
	if interrupted {
		fmt.Fprintf(stderr, "stbench: interrupted — partial results: %d/%d experiments completed\n", done, total)
		return 130
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}
