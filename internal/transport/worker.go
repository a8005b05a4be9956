package transport

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"extmem/internal/core"
	"extmem/internal/trials"
)

// EnvWorker is the environment variable that marks a process as a
// shard worker. The coordinator sets it on every worker it spawns; the
// hosting binary (stbench, strun, or a test binary's TestMain hook)
// checks it before doing anything else and hands the process to Main.
const EnvWorker = "EXTMEM_STWORKER"

// EnvListen is the environment variable that marks a process as a TCP
// shard worker: its value is the listen address. Tests that need a
// killable worker process (real process death over a real connection)
// spawn their own test binary with it set; MaybeWorker routes such a
// process into the serve loop exactly as EnvWorker routes it into the
// pipe worker.
const EnvListen = "EXTMEM_STWORKER_LISTEN"

// WorkerArg is the hidden subcommand name under which the CLIs expose
// the worker ("stbench stworker", "strun stworker"). It exists so the
// worker is visible in process listings; the environment variable is
// what actually routes execution, which keeps test binaries — whose
// argument vector belongs to the testing package — spawnable as
// workers too. With `-listen addr` following it, the subcommand serves
// jobs over TCP instead of reading one job from stdin.
const WorkerArg = "stworker"

// IsWorker reports whether this process was launched as a shard
// worker: one of the environment markers is set, or the first argument
// is the hidden subcommand.
func IsWorker(args []string) bool {
	if os.Getenv(EnvWorker) == "1" || os.Getenv(EnvListen) != "" {
		return true
	}
	return len(args) > 1 && args[1] == WorkerArg
}

// WorkerMain runs a process identified by IsWorker and returns its
// exit code: the `stworker -listen addr` form (or the EnvListen
// marker) serves jobs over TCP until signalled; every other form is
// the pipe worker reading one job frame from stdin.
func WorkerMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if addr := os.Getenv(EnvListen); addr != "" {
		return ServeMain(addr, stderr)
	}
	if len(args) > 3 && args[1] == WorkerArg && args[2] == "-listen" {
		return ServeMain(args[3], stderr)
	}
	return Main(stdin, stdout, stderr)
}

// MaybeWorker hijacks the process if it was spawned as a shard worker
// and never returns in that case. Test binaries that execute
// transport-backed fleets install it first thing in TestMain, so the
// self-exec default of Proc — and the spawn-a-killable-TCP-worker
// pattern of the failure-matrix tests — work under `go test` exactly
// as they do under the real CLIs.
func MaybeWorker() {
	if addr := os.Getenv(EnvListen); addr != "" {
		os.Exit(ServeMain(addr, os.Stderr))
	}
	if os.Getenv(EnvWorker) == "1" {
		os.Exit(Main(os.Stdin, os.Stdout, os.Stderr))
	}
}

// Main is the pipe shard worker: it reads the single job frame from
// stdin, executes the assignment on a shard-local engine or machine,
// streams reply frames to stdout (per-trial rows in trial order, then
// the Done report), and returns the process exit code. All errors
// worth reporting travel in frames or the exit code; stderr is for
// human diagnostics only.
func Main(stdin io.Reader, stdout, stderr io.Writer) int {
	var job Job
	if err := newFrameReader(bufio.NewReader(stdin)).recv(&job); err != nil {
		fmt.Fprintln(stderr, "stworker: reading job:", err)
		return 1
	}
	// The pipe worker's job is never cancelled from inside: a
	// coordinator that gives up kills the process instead.
	return serveJob(context.Background(), job, newFrameWriter(stdout), pipeDie, stderr)
}

// serveJob executes one decoded job against a reply stream out — the
// shared body of the pipe worker (Main) and the TCP serve loop's
// per-connection handler. ctx is the job's life: a Stall order waits
// on it and returns without running the job once it ends. die executes
// a mid-stream termination order: process death on pipes, where the
// worker owns its process; connection death in serve mode, where one
// process hosts many connections. In serve mode die returns and the
// next send fails on the closed connection, which ends the job without
// a Done frame — the same mid-job death the coordinator sees from a
// dead process.
func serveJob(ctx context.Context, job Job, out *frameWriter, die func(*WorkerFault), stderr io.Writer) int {
	if f := job.Fault; f != nil && f.Stall > 0 {
		stall := time.NewTimer(f.Stall)
		defer stall.Stop()
		select {
		case <-stall.C:
		case <-ctx.Done():
			return 1
		}
	}
	if f := job.Fault; f != nil && f.Corrupt {
		// A length prefix past every limit: the coordinator must treat
		// it as a malformed frame, never as an allocation order.
		out.w.Write([]byte{0xff, 0xff, 0xff, 0xff})
		return 1
	}
	send := func(rep Reply) error { return out.send(&rep) }
	switch {
	case job.Trial != nil:
		return runTrialJob(job.Trial, job.Fault, send, die, stderr)
	case job.Sort != nil:
		return runMachineJob(job.Sort.Execute, job.Fault, send, die, stderr)
	case job.Scan != nil:
		return runMachineJob(job.Scan.Execute, job.Fault, send, die, stderr)
	}
	fmt.Fprintln(stderr, "stworker: job frame assigns no work")
	return 1
}

// dies reports whether the fault orders the stream to end before the
// Done frame (process death on pipes, connection death in serve mode).
func (f *WorkerFault) dies() bool { return f != nil && f.Exit }

// pipeDie executes a termination order in the pipe worker:
// self-SIGKILL when Kill is set (uncatchable; the brief sleep yields
// until the signal lands), a plain nonzero exit otherwise. Either way
// the reply stream ends without a Done frame — mid-job death, as the
// coordinator sees a crashed shard machine.
func pipeDie(f *WorkerFault) {
	if f.Kill {
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			p.Kill()
			time.Sleep(time.Second)
		}
	}
	os.Exit(1)
}

func runTrialJob(j *TrialJob, fault *WorkerFault, send func(Reply) error, die func(*WorkerFault), stderr io.Writer) int {
	fn, err := j.Workload.Build()
	if err != nil {
		// No builder, undecodable spec: report and die. The coordinator
		// retries and then absorbs the range itself, so even a workload
		// that cannot cross the boundary converges to correct rows.
		send(Reply{Done: &Done{Err: err.Error()}})
		fmt.Fprintln(stderr, "stworker:", err)
		return 1
	}
	rows := 0
	var sendErr error
	eng := trials.Engine{
		Trials:   j.Trials,
		Offset:   j.Offset,
		Parallel: j.Parallel,
		Seed:     j.Seed,
		OnResult: func(r trials.Result) {
			if sendErr != nil {
				return
			}
			if fault.dies() && rows >= fault.ExitAfter {
				die(fault)
			}
			if sendErr = send(Reply{Row: &r}); sendErr == nil {
				rows++
			}
		},
	}
	rs, _, runErr := eng.Run(context.Background(), fn)
	if sendErr != nil {
		fmt.Fprintln(stderr, "stworker: streaming rows:", sendErr)
		return 1
	}
	if rs == nil && runErr != nil {
		// A hard engine failure (a trial panic the engine recovered):
		// surface it in the Done frame so the coordinator's retry takes
		// over, exactly as it would for an in-process attempt.
		send(Reply{Done: &Done{Err: runErr.Error()}})
		return 1
	}
	if fault.dies() && rows <= fault.ExitAfter {
		// An empty or short range never reached the ordered row: die
		// before the Done frame so the fault stays a fault.
		die(fault)
	}
	if err := send(Reply{Done: &Done{}}); err != nil {
		fmt.Fprintln(stderr, "stworker: sending done:", err)
		return 1
	}
	return 0
}

// runMachineJob is the worker body of a machine job — a shard-local
// sort or operator scan: execute runs the job on a fresh shard machine,
// and its output bytes and resource report go back in one Done frame.
func runMachineJob(execute func() ([]byte, core.Resources, error), fault *WorkerFault, send func(Reply) error, die func(*WorkerFault), stderr io.Writer) int {
	if fault.dies() {
		// Machine jobs stream no rows; any death order means dying
		// before the Done frame.
		die(fault)
		return 1
	}
	out, res, err := execute()
	if err != nil {
		send(Reply{Done: &Done{Err: err.Error()}})
		fmt.Fprintln(stderr, "stworker:", err)
		return 1
	}
	if err := send(Reply{Done: &Done{Machine: &MachineDone{Out: out, Resources: res}}}); err != nil {
		fmt.Fprintln(stderr, "stworker: sending done:", err)
		return 1
	}
	return 0
}
