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
// fixed -shards shape with the cost-based planner; it applies to -algo
// relalg alone. The execution flags -parallel, -shards, -transport,
// -workers, -budget, -budget-tapes, -budget-shards, -storage,
// -spill-dir, -spill-threshold and -serve are shared with stbench and
// documented in internal/cliflags; none of them changes stdout.
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
// -transport proc or tcp ships each shard's work to worker processes
// or TCP workers: fleet shards carry the fingerprint workload by wire
// form, relalg operator sorts and scans carry self-contained machine
// jobs. It applies to fleet mode and -algo relalg; a single-machine run
// has no shards to ship, so -transport proc or tcp there is a flag
// error rather than a silent no-op.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"extmem/internal/algorithms"
	"extmem/internal/cliflags"
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

// validate rejects malformed strun flag combinations with a one-line
// error before any machine runs, so misuse exits 2 instead of
// panicking (or failing obscurely) downstream. It runs before the
// shared execution flags are checked.
func validate(algo, format, transportName string, trialsN int) error {
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
	if trialsN < 1 {
		return fmt.Errorf("-trials must be >= 1 (got %d)", trialsN)
	}
	// A single-machine run has no shards to ship; degrading silently to
	// the in-process engine would make the flag a lie.
	if (transportName == "proc" || transportName == "tcp") && trialsN == 1 && algo != "relalg" {
		return fmt.Errorf("-transport %s applies to fleet mode (-trials > 1) or -algo relalg", transportName)
	}
	return nil
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
	format := fs.String("format", "text", "fleet row format: text, json or csv")
	ex := cliflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if code, served := ex.Serve(ctx); served {
		return code
	}
	if err := validate(*algo, *format, ex.TransportName(), *trialsN); err != nil {
		fmt.Fprintln(stderr, "strun:", err)
		return 2
	}
	if err := ex.Resolve(); err != nil {
		fmt.Fprintln(stderr, "strun:", err)
		return 2
	}
	if ex.Budget != nil && *algo != "relalg" {
		fmt.Fprintf(stderr, "strun: -budget applies to -algo relalg (got %q)\n", *algo)
		return 2
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
		return runFleet(ctx, in, *trialsN, *seed, *format, ex, stdout, stderr)
	}
	if *algo == "relalg" {
		return runQuery(ctx, in, *seed, ex, stdout, stderr)
	}

	fmt.Fprintf(stdout, "instance: m=%d, N=%d\n", in.M(), in.Size())
	verdict, res, err := runAlgo(*algo, in, *seed, ex.Tape, stdout)
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
func runFleet(ctx context.Context, in problems.Instance, n int, seed int64, format string, ex *cliflags.Flags, stdout, stderr io.Writer) int {
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
		Plan:     shard.Plan{Shards: ex.Shards, Trials: n},
		Parallel: ex.Parallel,
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
	if ex.Transport != nil {
		fleet.Attempt = ex.Transport.Attempt()
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
// -shards is at least 1 (the evaluator's zero value would select the
// unsharded engine, which records no census at all). A -budget
// envelope hands shape selection to the cost-based planner instead of
// the fixed -shards count; stdout cannot tell the difference.
func runQuery(ctx context.Context, in problems.Instance, seed int64, ex *cliflags.Flags, stdout, stderr io.Writer) int {
	db := relalg.InstanceDB(in)
	rep := &relalg.QueryReport{}
	ev := relalg.Evaluator{Shards: ex.Shards, Seed: seed, Report: rep, TapeOpts: ex.Tape}
	if ex.Budget != nil {
		ev.Plan = plan.Auto(*ex.Budget)
	}
	if ex.Transport != nil {
		ev.Exec = ex.Transport.Exec()
		ev.ExecScan = ex.Transport.ExecScan()
	}
	m := core.NewMachineOpts(relalg.NumQueryTapes, seed, ex.Tape)
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
