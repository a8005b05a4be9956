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
//	        [-storage mem|file|mmap] [-spill-dir DIR] [-spill-threshold N]
//	        [-format text|json|csv]
//	stbench -serve host:port
//
// -storage selects where tape cells live (internal/tape backends):
// mem is the in-RAM default, file buffers cells in unlinked temp
// files, mmap memory-maps them. Like -shards it is pure execution
// shape — the backend may move the bytes' home, never a count — so
// stdout is byte-identical at any -storage. -spill-dir places the
// temp files (default: the system temp directory); they are unlinked
// at creation, so no spill file survives any exit, SIGINT included.
// -spill-threshold keeps a file/mmap tape in RAM until it first
// exceeds that many cells — small scratch tapes never touch the disk;
// both flags require -storage file or mmap (exit 2 otherwise).
//
// -budget hands the experiments a cost-based planner envelope
// (internal/plan): BITS of run-formation memory, -budget-tapes tapes
// and up to -budget-shards shard machines per operator stage. The
// planner picks each stage's execution shape inside that envelope —
// another execution choice, so stdout stays byte-identical with or
// without it; E21 verifies the configured envelope's evaluation
// reproduces the single-machine bytes.
//
// -transport proc runs shard attempts in worker processes: stbench
// re-executes itself under the hidden stworker subcommand, ships each
// trial-range or sort assignment over the worker's stdin as
// length-prefixed gob frames, and streams the rows back over stdout
// (internal/transport). Trial rows and sorted ranges are pure
// functions of (seed, index), so stdout is byte-identical to
// -transport inproc; a dead worker takes the same retry → fallback
// path as an injected panic. Fleets whose trial bodies have no wire
// form (and chaos-wrapped fleets, whose strikes live in the
// coordinator's injector) keep running in-process.
//
// -transport tcp ships the same frames over TCP to long-lived workers
// instead of spawned processes: -workers names them (host:port,...,
// required), shard attempts are assigned round-robin by shard index,
// and a retry moves to the next worker in the ring. Each connection
// opens with a handshake carrying the frame-protocol version and the
// workload-registry fingerprint, so a mismatched build is a typed
// error before any job ships. Network death is process death — a
// refused dial, a dropped connection or a stall past the attempt
// deadline takes the same retry → fallback path, so stdout stays
// byte-identical. Start a worker with `stbench -serve host:port`
// (Ctrl-C stops it); the equivalent hidden form is
// `stbench stworker -listen host:port`.
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
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"extmem/internal/experiments"
	"extmem/internal/faults"
	"extmem/internal/plan"
	"extmem/internal/shard"
	"extmem/internal/tape"
	"extmem/internal/transport"
)

// budgetEnvelope validates the -budget flag family and builds the
// planner envelope, or nil when -budget is absent. The memory bound
// arrives as a float so NaN can be rejected by name: the negated form
// catches it (NaN fails every ordered comparison and would sail
// through `bits <= 0`), alongside zero, negatives and infinities.
func budgetEnvelope(set bool, bits float64, tapes, shards int) (*plan.Budget, error) {
	if !set {
		return nil, nil
	}
	if !(bits > 0) || math.IsInf(bits, 0) {
		return nil, fmt.Errorf("-budget must be a positive finite bit count (got %g)", bits)
	}
	b := plan.Budget{MemoryBits: int64(bits), Tapes: tapes, MaxShards: shards}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

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
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "trial-fleet worker goroutines per shard (never changes the output)")
	shards := fs.Int("shards", 1, "trial-fleet shards, each with its own worker pool (never changes the output)")
	format := fs.String("format", "text", "output format: text, json or csv")
	transportMode := fs.String("transport", "inproc", "shard transport: inproc (shard goroutines), proc (worker processes) or tcp (the -workers TCP workers); never changes the output")
	chaos := fs.String("chaos", "", "inject a recoverable fault plan: flaky (first-attempt panics) or delay (stragglers); never changes the output")
	chaosRate := fs.Float64("chaos-rate", 0.02, "fraction of fault sites struck by the -chaos plan (site 0 always strikes)")
	budget := fs.Float64("budget", 0, "cost-based planner envelope: run-formation memory in bits (never changes the output)")
	budgetTapes := fs.Int("budget-tapes", 6, "planner envelope: tapes per shard machine (requires -budget)")
	budgetShards := fs.Int("budget-shards", 4, "planner envelope: shard-fleet ceiling (requires -budget)")
	storage := fs.String("storage", "mem", "tape storage backend: mem, file or mmap (never changes the output)")
	spillDir := fs.String("spill-dir", "", "directory for file/mmap tape spill files (requires -storage file or mmap; default: system temp dir)")
	spillThreshold := fs.Int("spill-threshold", 0, "cells a file/mmap tape holds in RAM before spilling to its backend (requires -storage file or mmap; 0 = spill from the start)")
	workers := fs.String("workers", "", "comma-separated TCP worker addresses host:port,... (requires -transport tcp)")
	serve := fs.String("serve", "", "serve shard jobs over TCP on this host:port instead of running experiments (conflicts with -transport and -workers)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["serve"] {
		// A worker host runs nothing but the serve loop: the experiment
		// flags describe a run it will never make, and the transport
		// flags describe the coordinator's side of the wire.
		if set["transport"] || set["workers"] {
			fmt.Fprintln(stderr, "stbench: -serve conflicts with -transport and -workers")
			return 2
		}
		if err := transport.ListenAndServe(ctx, *serve, stderr); err != nil {
			fmt.Fprintln(stderr, "stbench:", err)
			return 1
		}
		return 0
	}
	if *trials < 0 {
		fmt.Fprintf(stderr, "stbench: -trials must be >= 0 (got %d)\n", *trials)
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "stbench: -parallel must be >= 1 (got %d)\n", *parallel)
		return 2
	}
	if *shards < 1 {
		fmt.Fprintf(stderr, "stbench: -shards must be >= 1 (got %d)\n", *shards)
		return 2
	}
	switch *transportMode {
	case "inproc", "proc", "tcp":
	default:
		fmt.Fprintf(stderr, "stbench: unknown -transport %q (want inproc, proc or tcp)\n", *transportMode)
		return 2
	}
	if *transportMode == "tcp" && !set["workers"] {
		fmt.Fprintln(stderr, "stbench: -transport tcp requires -workers")
		return 2
	}
	if set["workers"] && *transportMode != "tcp" {
		fmt.Fprintln(stderr, "stbench: -workers requires -transport tcp")
		return 2
	}
	var workerAddrs []string
	if *transportMode == "tcp" {
		var err error
		if workerAddrs, err = transport.ParseWorkers(*workers); err != nil {
			fmt.Fprintln(stderr, "stbench:", err)
			return 2
		}
	}
	// The negated form catches NaN too, which fails every ordered
	// comparison and would sail through `rate < 0 || rate > 1`.
	if !(*chaosRate >= 0 && *chaosRate <= 1) {
		fmt.Fprintf(stderr, "stbench: -chaos-rate must be in [0, 1] (got %g)\n", *chaosRate)
		return 2
	}
	if !set["chaos"] && set["chaos-rate"] {
		fmt.Fprintln(stderr, "stbench: -chaos-rate requires -chaos")
		return 2
	}
	if !set["budget"] && (set["budget-tapes"] || set["budget-shards"]) {
		fmt.Fprintln(stderr, "stbench: -budget-tapes and -budget-shards require -budget")
		return 2
	}
	storageKind, err := tape.ParseStorage(*storage)
	if err != nil {
		fmt.Fprintln(stderr, "stbench:", err)
		return 2
	}
	if set["spill-dir"] && storageKind == tape.Mem {
		fmt.Fprintln(stderr, "stbench: -spill-dir requires -storage file or mmap")
		return 2
	}
	if set["spill-threshold"] && storageKind == tape.Mem {
		fmt.Fprintln(stderr, "stbench: -spill-threshold requires -storage file or mmap")
		return 2
	}
	topts := tape.Options{Storage: storageKind, SpillDir: *spillDir, SpillThreshold: *spillThreshold}
	if err := topts.Validate(); err != nil {
		fmt.Fprintln(stderr, "stbench:", err)
		return 2
	}
	envelope, err := budgetEnvelope(set["budget"], *budget, *budgetTapes, *budgetShards)
	if err != nil {
		fmt.Fprintln(stderr, "stbench:", err)
		return 2
	}
	faultPlan, retry, err := chaosPlan(*chaos, *seed, *chaosRate)
	if err != nil {
		fmt.Fprintln(stderr, "stbench:", err)
		return 2
	}
	cfg := experiments.Config{
		Seed: *seed, Trials: *trials, Parallel: *parallel, Shards: *shards,
		Ctx: ctx, Faults: faultPlan, Retry: retry, Budget: envelope,
		Storage: topts,
	}
	switch *transportMode {
	case "proc":
		cfg.Transport = &transport.Proc{Stderr: stderr}
	case "tcp":
		cfg.Transport = &transport.TCP{Workers: workerAddrs, DialTimeout: 5 * time.Second}
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
