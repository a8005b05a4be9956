// Command strun runs one of the paper's algorithms on a generated (or
// supplied) instance and prints the verdict together with the exact
// resource report of the ST model: sequential scans (1 + head
// reversals) and peak internal memory in bits.
//
// Usage:
//
//	strun -algo fingerprint -m 1024 -n 16 -yes=false
//	strun -algo multiset -input '01#10#10#01#'
//	strun -algo sort -m 64 -n 8
//	strun -algo fingerprint -yes=false -trials 500 -parallel 8 -format csv
//
// Algorithms: multiset, set, checksort (deterministic, Corollary 7);
// fingerprint (Theorem 8a); nst-multiset, nst-set, nst-checksort
// (Theorem 8b); sort (Corollary 10); relalg (Theorem 11).
//
// With -algo relalg, strun evaluates the Theorem 11 symmetric-
// difference query Q' = (R1 − R2) ∪ (R2 − R1) on the instance's
// two-relation database through the sharded relational evaluator
// (internal/relalg.Evaluator over internal/shard): every operator
// sort runs run-partitioned across -shards shard machines. Q' is
// empty exactly when the instance halves are set-equal, and a sorted
// deduplicated stream is canonical, so stdout is byte-identical at
// any -shards value; the per-shard (r, s, t) rollup census goes to
// stderr.
//
// -budget BITS (with -budget-tapes and -budget-shards) replaces the
// fixed -shards shape with the cost-based planner (internal/plan):
// each operator stage runs at the shape minimizing its predicted
// critical path inside the envelope, with the merge-free pipelined
// handoff between stages. The planner moves only the execution
// shape, so stdout is byte-identical to any fixed shape. It applies
// to -algo relalg alone.
//
// -storage selects the tape storage backend (mem, file or mmap) for
// every machine of the run, with -spill-dir placing the file/mmap
// backends' unlinked temp files and -spill-threshold keeping small
// tapes in RAM until they first exceed that many cells; like -shards
// none of them changes stdout — the backend may move the bytes' home,
// never a count. Both spill flags require -storage file or mmap.
//
// With -trials > 1 and -algo fingerprint, strun runs a Monte-Carlo
// fleet of independent fingerprint trials on the same instance across
// -shards shards of -parallel workers each (the sharded execution
// layer of internal/shard), streams one row per trial in -format
// (text, json or csv) and reports the acceptance rate with its Wilson
// 95% interval on stderr. Per-trial coins derive from -seed and the
// global trial index alone, so the rows are byte-identical at any
// -parallel and any -shards value.
//
// -transport proc ships each shard's work to a worker process — strun
// re-executed under the hidden stworker subcommand — over
// length-prefixed gob frames (internal/transport): fleet shards carry
// the fingerprint workload by wire form, relalg operator sorts carry
// self-contained sort jobs. stdout is byte-identical to the in-process
// transport, and a dead worker retries and falls back exactly like an
// injected panic. It applies to fleet mode and -algo relalg; a
// single-machine run has no shards to ship, so -transport proc there
// is a flag error rather than a silent no-op.
//
// -transport tcp ships the same frames to long-lived TCP workers
// named by -workers host:port,... (required, and mutual: -workers
// requires -transport tcp). Connections open with a version +
// workload-registry handshake, shard attempts are assigned
// round-robin by shard index, and network death — refused dial,
// dropped connection, stalled peer — is process death: the same
// retry → fallback path, the same stdout. Start a worker with
// `strun -serve host:port` (Ctrl-C stops it).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/plan"
	"extmem/internal/problems"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/tape"
	"extmem/internal/transport"
	"extmem/internal/trials"
)

func main() {
	if transport.IsWorker(os.Args) {
		// A shard worker: no flags, no signal handling. Pipe workers run
		// in their own process group, so terminal signals reach only the
		// coordinator — which owns the partial-results footer and tears
		// workers down through their job contexts; TCP workers
		// (`strun stworker -listen addr`) install their own handler.
		os.Exit(transport.WorkerMain(os.Args, os.Stdin, os.Stdout, os.Stderr))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// knownAlgos lists every -algo value strun accepts.
var knownAlgos = []string{
	"multiset", "set", "checksort",
	"fingerprint",
	"nst-multiset", "nst-set", "nst-checksort",
	"sort", "relalg",
}

// validate rejects malformed flag combinations with a one-line error
// before any machine runs, so misuse exits 2 instead of panicking (or
// failing obscurely) downstream.
func validate(algo, format, transportMode string, trialsN, parallel, shards int) error {
	ok := false
	for _, a := range knownAlgos {
		if algo == a {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("unknown -algo %q (want one of %v)", algo, knownAlgos)
	}
	switch format {
	case "text", "json", "csv":
	default:
		return fmt.Errorf("unknown -format %q (want text, json or csv)", format)
	}
	switch transportMode {
	case "inproc", "proc", "tcp":
	default:
		return fmt.Errorf("unknown -transport %q (want inproc, proc or tcp)", transportMode)
	}
	if trialsN < 1 {
		return fmt.Errorf("-trials must be >= 1 (got %d)", trialsN)
	}
	if parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1 (got %d)", parallel)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1 (got %d)", shards)
	}
	// A single-machine run has no shards to ship; degrading silently to
	// the in-process engine would make the flag a lie.
	if transportMode != "inproc" && trialsN == 1 && algo != "relalg" {
		return fmt.Errorf("-transport %s applies to fleet mode (-trials > 1) or -algo relalg", transportMode)
	}
	return nil
}

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

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("strun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algo := fs.String("algo", "multiset", "algorithm to run")
	mFlag := fs.Int("m", 64, "values per half (generated instances)")
	nFlag := fs.Int("n", 12, "value length in bits (generated instances)")
	yes := fs.Bool("yes", true, "generate a yes-instance")
	seed := fs.Int64("seed", 1, "random seed")
	input := fs.String("input", "", "explicit instance v1#…vm#v'1#…v'm# (overrides -m/-n)")
	trialsN := fs.Int("trials", 1, "fingerprint only: fleet size of independent trials")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "fleet worker goroutines per shard (never changes the rows)")
	shards := fs.Int("shards", 1, "fleet shards (fingerprint fleets) or sort shards (relalg); never changes stdout")
	format := fs.String("format", "text", "fleet row format: text, json or csv")
	transportMode := fs.String("transport", "inproc", "shard transport: inproc (shard goroutines), proc (worker processes) or tcp (the -workers TCP workers); never changes stdout")
	budget := fs.Float64("budget", 0, "relalg only: cost-based planner envelope, run-formation memory in bits (never changes stdout)")
	budgetTapes := fs.Int("budget-tapes", 6, "planner envelope: tapes per shard machine (requires -budget)")
	budgetShards := fs.Int("budget-shards", 4, "planner envelope: shard-fleet ceiling (requires -budget)")
	storage := fs.String("storage", "mem", "tape storage backend: mem, file or mmap (never changes stdout)")
	spillDir := fs.String("spill-dir", "", "directory for file/mmap tape spill files (requires -storage file or mmap; default: system temp dir)")
	spillThreshold := fs.Int("spill-threshold", 0, "cells a file/mmap tape holds in RAM before spilling to its backend (requires -storage file or mmap; 0 = spill from the start)")
	workers := fs.String("workers", "", "comma-separated TCP worker addresses host:port,... (requires -transport tcp)")
	serve := fs.String("serve", "", "serve shard jobs over TCP on this host:port instead of running an algorithm (conflicts with -transport and -workers)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["serve"] {
		// A worker host runs nothing but the serve loop: the algorithm
		// flags describe a run it will never make, and the transport
		// flags describe the coordinator's side of the wire.
		if set["transport"] || set["workers"] {
			fmt.Fprintln(stderr, "strun: -serve conflicts with -transport and -workers")
			return 2
		}
		if err := transport.ListenAndServe(ctx, *serve, stderr); err != nil {
			fmt.Fprintln(stderr, "strun:", err)
			return 1
		}
		return 0
	}
	if err := validate(*algo, *format, *transportMode, *trialsN, *parallel, *shards); err != nil {
		fmt.Fprintln(stderr, "strun:", err)
		return 2
	}
	if *transportMode == "tcp" && !set["workers"] {
		fmt.Fprintln(stderr, "strun: -transport tcp requires -workers")
		return 2
	}
	if set["workers"] && *transportMode != "tcp" {
		fmt.Fprintln(stderr, "strun: -workers requires -transport tcp")
		return 2
	}
	var workerAddrs []string
	if *transportMode == "tcp" {
		var err error
		if workerAddrs, err = transport.ParseWorkers(*workers); err != nil {
			fmt.Fprintln(stderr, "strun:", err)
			return 2
		}
	}
	if !set["budget"] && (set["budget-tapes"] || set["budget-shards"]) {
		fmt.Fprintln(stderr, "strun: -budget-tapes and -budget-shards require -budget")
		return 2
	}
	if set["budget"] && *algo != "relalg" {
		fmt.Fprintf(stderr, "strun: -budget applies to -algo relalg (got %q)\n", *algo)
		return 2
	}
	envelope, err := budgetEnvelope(set["budget"], *budget, *budgetTapes, *budgetShards)
	if err != nil {
		fmt.Fprintln(stderr, "strun:", err)
		return 2
	}
	storageKind, err := tape.ParseStorage(*storage)
	if err != nil {
		fmt.Fprintln(stderr, "strun:", err)
		return 2
	}
	if set["spill-dir"] && storageKind == tape.Mem {
		fmt.Fprintln(stderr, "strun: -spill-dir requires -storage file or mmap")
		return 2
	}
	if set["spill-threshold"] && storageKind == tape.Mem {
		fmt.Fprintln(stderr, "strun: -spill-threshold requires -storage file or mmap")
		return 2
	}
	topts := tape.Options{Storage: storageKind, SpillDir: *spillDir, SpillThreshold: *spillThreshold}
	if err := topts.Validate(); err != nil {
		fmt.Fprintln(stderr, "strun:", err)
		return 2
	}
	var tr transport.Transport
	switch *transportMode {
	case "proc":
		tr = &transport.Proc{Stderr: stderr}
	case "tcp":
		tr = &transport.TCP{Workers: workerAddrs, DialTimeout: 5 * time.Second}
	}

	rng := rand.New(rand.NewSource(*seed))
	in, err := buildInstance(*algo, *input, *mFlag, *nFlag, *yes, rng)
	if err != nil {
		return fail(stderr, err)
	}

	if *trialsN > 1 {
		if *algo != "fingerprint" {
			return fail(stderr, fmt.Errorf("-trials > 1 is only supported for -algo fingerprint (got %q)", *algo))
		}
		return runFleet(ctx, in, *trialsN, *shards, *parallel, *seed, *format, tr, stdout, stderr)
	}
	if *algo == "relalg" {
		return runQuery(ctx, in, *shards, *seed, envelope, tr, topts, stdout, stderr)
	}

	fmt.Fprintf(stdout, "instance: m=%d, N=%d\n", in.M(), in.Size())
	verdict, res, err := runAlgo(*algo, in, *seed, topts, stdout)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "verdict:  %v\n", verdict)
	fmt.Fprintf(stdout, "resources: %v\n", res)
	want := reference(*algo, in)
	fmt.Fprintf(stdout, "reference: %v\n", want)
	if verdict != want && *algo != "fingerprint" {
		return fail(stderr, fmt.Errorf("verdict disagrees with the reference decider"))
	}
	return 0
}

// runFleet streams a fingerprint trial fleet on the instance: one
// machine per trial, coins derived from (seed, global trial index),
// executed as a sharded fleet whose in-order merge stream feeds the
// row encoder. Under -transport proc or tcp every shard range ships
// across the transport — the trial body travels as its registered
// workload wire form and the rows come back identical. A mid-stream
// encoder error cancels the fleet (workers drain, exit 1);
// SIGINT/SIGTERM cancels it too, flushing the encoder and a
// partial-results footer before exiting 130.
func runFleet(ctx context.Context, in problems.Instance, n, shards, parallel int, seed int64, format string, tr transport.Transport, stdout, stderr io.Writer) int {
	enc, err := trials.NewEncoder(format, stdout)
	if err != nil {
		return fail(stderr, err)
	}
	fleetCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w, trial := algorithms.FingerprintInputWorkload(in.Encode())
	var (
		encErr error
		rows   int
	)
	fleet := shard.Fleet{
		Plan:     shard.Plan{Shards: shards, Trials: n},
		Parallel: parallel,
		Seed:     seed,
		OnResult: func(r trials.Result) {
			if encErr != nil {
				return
			}
			if encErr = enc.Row(r); encErr != nil {
				cancel() // abort the fleet: nothing downstream can consume rows
				return
			}
			rows++
		},
	}
	if tr != nil {
		fleet.Attempt = tr.Attempt()
	}
	_, sum, err := fleet.Run(trials.WithWorkload(fleetCtx, w), trial)
	if ctx.Err() != nil {
		// Interrupted: flush what was emitted and account the partial
		// prefix honestly. A failing flush is reported too — silently
		// dropping it would claim rows that never reached the sink —
		// but cannot mask the interrupt status.
		if cerr := enc.Close(); cerr != nil {
			fmt.Fprintln(stderr, "strun:", cerr)
		}
		fmt.Fprintf(stderr, "strun: interrupted — partial results: %d/%d rows emitted\n", rows, n)
		return 130
	}
	if encErr == nil {
		encErr = enc.Close()
	}
	for _, e := range []error{encErr, err} {
		if e != nil {
			return fail(stderr, e)
		}
	}
	fmt.Fprintln(stderr, "strun:", trials.FormatSummary(sum))
	return 0
}

// runQuery evaluates Q' = (R1 − R2) ∪ (R2 − R1) on the instance's
// database through the sharded relational evaluator. Only the
// shard-invariant verdict lines go to stdout; the execution census
// (one SortReport per operator sort, rolled up) goes to stderr.
// Like fleet mode (shard.Plan.ShardCount), -shards values below 1
// mean 1 — the evaluator's zero value would select the unsharded
// engine, which records no census at all. A -budget envelope hands
// shape selection to the cost-based planner instead of the fixed
// -shards count; stdout cannot tell the difference.
func runQuery(ctx context.Context, in problems.Instance, shards int, seed int64, envelope *plan.Budget, tr transport.Transport, topts tape.Options, stdout, stderr io.Writer) int {
	if shards < 1 {
		shards = 1
	}
	db := relalg.InstanceDB(in)
	rep := &relalg.QueryReport{}
	ev := relalg.Evaluator{Shards: shards, Seed: seed, Report: rep, TapeOpts: topts}
	if envelope != nil {
		ev.Plan = plan.Auto(*envelope)
	}
	if tr != nil {
		ev.Exec = tr.Exec()
		ev.ExecScan = tr.ExecScan()
	}
	m := core.NewMachineOpts(relalg.NumQueryTapes, seed, topts)
	defer m.Close()
	r, err := ev.EvalST(ctx, relalg.SymmetricDifference("R1", "R2"), db, m)
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			fmt.Fprintln(stderr, "strun: interrupted — query evaluation cancelled")
			return 130
		}
		return fail(stderr, err)
	}
	verdict := core.Reject
	if len(r.Tuples) == 0 {
		verdict = core.Accept
	}
	fmt.Fprintf(stdout, "instance: m=%d, N=%d\n", in.M(), in.Size())
	fmt.Fprintf(stdout, "query:    Q' = (R1 − R2) ∪ (R2 − R1), |Q'| = %d\n", len(r.Tuples))
	fmt.Fprintf(stdout, "verdict:  %v\n", verdict)
	want := reference("relalg", in)
	fmt.Fprintf(stdout, "reference: %v\n", want)
	agg := rep.Rollup()
	fmt.Fprintf(stderr, "strun: %d operator sorts: %v; critical path %d steps\n",
		len(rep.Sorts), agg, rep.CriticalPathSteps())
	if verdict != want {
		return fail(stderr, fmt.Errorf("verdict disagrees with the reference decider"))
	}
	return 0
}

func buildInstance(algo, input string, m, n int, yes bool, rng *rand.Rand) (problems.Instance, error) {
	if input != "" {
		return problems.Decode([]byte(input))
	}
	switch algo {
	case "set", "nst-set", "relalg":
		// problems.GenSetYes panics when it cannot draw m distinct
		// n-bit strings; surface that as a flag error instead.
		if n < 63 && m > 1<<uint(n) {
			return problems.Instance{}, fmt.Errorf("-m %d needs more than 2^%d distinct values; raise -n or lower -m", m, n)
		}
		return problems.Gen(problems.SetEqualityProblem, yes, m, n, rng), nil
	case "checksort", "nst-checksort":
		return problems.Gen(problems.CheckSortProblem, yes, m, n, rng), nil
	default:
		return problems.Gen(problems.MultisetEqualityProblem, yes, m, n, rng), nil
	}
}

func runAlgo(algo string, in problems.Instance, seed int64, topts tape.Options, stdout io.Writer) (core.Verdict, core.Resources, error) {
	switch algo {
	case "multiset", "set", "checksort":
		m := core.NewMachineOpts(algorithms.NumDeciderTapes, seed, topts)
		defer m.Close()
		m.SetInput(in.Encode())
		var v core.Verdict
		var err error
		switch algo {
		case "multiset":
			v, err = algorithms.MultisetEqualityST(m)
		case "set":
			v, err = algorithms.SetEqualityST(m)
		default:
			v, err = algorithms.CheckSortST(m)
		}
		return v, m.Resources(), err
	case "fingerprint":
		m := core.NewMachineOpts(1, seed, topts)
		defer m.Close()
		m.SetInput(in.Encode())
		v, params, err := algorithms.FingerprintMultisetEquality(m)
		if err == nil {
			fmt.Fprintf(stdout, "fingerprint params: k=%d p1=%d p2=%d x=%d\n", params.K, params.P1, params.P2, params.X)
		}
		return v, m.Resources(), err
	case "nst-multiset", "nst-set", "nst-checksort":
		p := map[string]algorithms.NSTProblem{
			"nst-multiset":  algorithms.NSTMultisetEquality,
			"nst-set":       algorithms.NSTSetEquality,
			"nst-checksort": algorithms.NSTCheckSort,
		}[algo]
		m := core.NewMachineOpts(2, seed, topts)
		defer m.Close()
		m.SetInput(in.Encode())
		v, err := algorithms.DecideNST(p, m, in)
		return v, m.Resources(), err
	case "sort":
		res, _, err := algorithms.SortLasVegasRepeated(nil, in.Encode(), 6, 1, 1<<30, 1, trials.Pool(1), seed)
		return res.Verdict, res.Resources, err
	default:
		return core.Reject, core.Resources{}, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func reference(algo string, in problems.Instance) core.Verdict {
	var ok bool
	switch algo {
	case "set", "nst-set", "relalg":
		ok = problems.SetEquality(in)
	case "checksort", "nst-checksort":
		ok = problems.CheckSort(in)
	case "sort":
		ok = true // the function problem always has an output
	default:
		ok = problems.MultisetEquality(in)
	}
	if ok {
		return core.Accept
	}
	return core.Reject
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "strun:", err)
	return 1
}
