// Command bench is the repository benchmark: four closed-loop workloads
// that drive the ST-model stack end to end — the single-machine decider,
// the out-of-core sharded sort, planned query evaluation over TCP
// workers, and a fingerprint fleet over pipe workers — reporting wall
// time, CPU, memory and the paper's model costs, and, in a traced run,
// per-layer metrics measured at the stack's seams. README.md lists the
// workloads, the metrics and the commands.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"extmem/internal/transport"
)

func main() {
	// The binary is its own shard worker: the pipe transport re-executes
	// it with the worker marker set, and query-tcp starts it in serve mode.
	if transport.IsWorker(os.Args) {
		os.Exit(transport.WorkerMain(os.Args, os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the benchmark's command line; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run; empty runs every workload, each in a fresh process")
		seed     = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = fs.Float64("seconds", 25, "length of the measured phase in seconds")
		traceOn  = fs.Int("trace", 0, "1 traces the run and reports the per-layer metrics instead of the end-to-end ones")
		traceOut = fs.String("trace-out", "", "with -trace 1, write the spans to this JSONL file")
		recordTo = fs.String("record", "", "append each result as one JSON line to this file, for -compare")
		size     = fs.Int("size", 0, "input bytes of one job (0: the workload's default)")
		spillDir = fs.String("spill-dir", "", "directory for tape spill files (default: a fresh temporary directory)")
		compare  = fs.Bool("compare", false, "compare two sets of -record files: -compare BASE_GLOB NEW_GLOB")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two file patterns, BASE and NEW")
			return 2
		}
		return runCompare(sp.EndToEnd, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *traceOn != 0 && *traceOn != 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	case !(*seconds > 0):
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	case *size != 0 && *size < 1024:
		fmt.Fprintln(stderr, "bench: -size must be 0 or at least 1024")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *name == "" {
		return runAll(ctx, sp, args, *traceOut, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		size:     *size,
		trace:    *traceOn == 1,
		metrics:  sp.EndToEnd,
		spillDir: *spillDir,
		stderr:   stderr,
	}
	if cfg.trace {
		cfg.metrics = sp.PerLayer
	}
	res, tr, err := measure(ctx, w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		if ctx.Err() != nil {
			return 130
		}
		return 1
	}
	if tr != nil && *traceOut != "" {
		if err := tr.writeJSONL(*traceOut); err != nil {
			fmt.Fprintf(stderr, "bench: writing trace: %v\n", err)
			return 1
		}
	}
	if *recordTo != "" {
		rec := record{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, result: res}
		if err := appendRecord(*recordTo, rec); err != nil {
			fmt.Fprintf(stderr, "bench: recording result: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", res.line())
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d jobs failed\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// spec is BENCHMARK.json: the workloads, and the metrics with their
// units, directions and bounds. The harness reads it at run time, so it
// is the one place the metrics are declared.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory, which is the
// repository root when the benchmark runs as BENCHMARK.json's command, or
// from its parent, for the tests, which run in bench/.
func loadSpec() (spec, error) {
	var sp spec
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		data, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return sp, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return sp, nil
}

// record is one run's result as -record stores it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each in a fresh process of this binary so
// that peak RSS and set-up time are the workload's own, and prints every
// metric of every workload with its unit. A -trace-out file gets the
// workload's name appended.
func runAll(ctx context.Context, sp spec, args []string, traceOut string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		var out bytes.Buffer
		// Later flags win, so the appended ones override any in args.
		childArgs := append(args[:len(args):len(args)], "-workload", w.name)
		if traceOut != "" {
			childArgs = append(childArgs, "-trace-out", traceOut+"."+w.name)
		}
		cmd := exec.CommandContext(ctx, exe, childArgs...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		// On interrupt the child gets the chance to stop its own workers.
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = 30 * time.Second
		runErr := cmd.Run()
		if ctx.Err() != nil {
			return 130
		}
		var res result
		if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
			fmt.Fprintf(stderr, "bench: %s: no result (%v)\n", w.name, errors.Join(runErr, err))
			code = 1
			continue
		}
		if runErr != nil || !res.Correct {
			code = 1
		}
		fmt.Fprintf(stdout, "%s: correct=%v attempted=%d failed=%d fail_frac=%.4g\n",
			w.name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
		for _, defs := range [][]metricDef{sp.EndToEnd, sp.PerLayer} {
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; ok {
					fmt.Fprintf(stdout, "  %-32s %14s %s\n", d.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
				}
			}
		}
	}
	return code
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
