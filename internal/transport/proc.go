package transport

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/trials"
)

// Proc is the process-boundary shard transport: every shard attempt it
// executes spawns one worker process (by default this executable
// re-run in worker mode), ships the assignment as a job frame over
// stdin, and streams the replies back over stdout. The zero value is
// ready to use. A Proc carries no per-run state — one value can serve
// any number of concurrent fleets and sorts.
type Proc struct {
	// Command, when non-nil, builds the worker command (the test seam;
	// also the hook a future multi-host rung would use to put ssh or a
	// container runtime here). nil self-executes os.Executable() with
	// the hidden stworker subcommand and the EnvWorker marker set. The
	// command's stdin/stdout are owned by the transport; the context
	// must bound the process (exec.CommandContext).
	Command func(ctx context.Context) (*exec.Cmd, error)

	// Deadline bounds one attempt's wall clock, job write to Done
	// frame; 0 means unbounded. A worker that outlives it is killed and
	// the attempt fails like any other worker death — onto the retry →
	// fallback path.
	Deadline time.Duration

	// Fault, when non-nil, is consulted per (shard, attempt) and ships
	// the returned order inside the job frame — deterministic real-
	// process chaos, the transport twin of shard.Sort.Inject. nil
	// orders leave the worker healthy.
	Fault func(shard, attempt int) *WorkerFault

	// Stderr receives the workers' stderr; nil means os.Stderr.
	Stderr io.Writer
}

// WorkerError is a failed worker attempt: the process died (exit,
// signal, deadline), its stream ended early, or it sent a malformed or
// out-of-order frame. shard.RunStage treats it like any other attempt
// error — exactly like a recovered in-process panic: burn an attempt,
// back off, retry, and degrade to the coordinator's own execution when
// the budget runs out.
type WorkerError struct {
	Shard   int   // the shard whose attempt failed
	Attempt int   // 1-based attempt number
	Err     error // what went wrong
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("transport: shard %d worker (attempt %d): %v", e.Shard, e.Attempt, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

func (p *Proc) stderr() io.Writer {
	if p.Stderr != nil {
		return p.Stderr
	}
	return os.Stderr
}

func (p *Proc) command(ctx context.Context) (*exec.Cmd, error) {
	if p.Command != nil {
		return p.Command(ctx)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, WorkerArg)
	// Race-built workers (go test -race spawning its own test binary)
	// would otherwise sleep the detector's default atexit_sleep_ms=1s
	// on every exit — a 50× wall-clock tax on short-lived shard
	// workers. Races in worker code are still caught while it runs,
	// and every proc path has an in-process twin under default
	// settings. A non-race binary ignores GORACE entirely.
	gorace := os.Getenv("GORACE")
	if gorace != "" {
		gorace += ","
	}
	cmd.Env = append(os.Environ(), EnvWorker+"=1", "GORACE="+gorace+"atexit_sleep_ms=0")
	return cmd, nil
}

// runJob spawns one worker for one job, feeds each streamed row to
// onRow (trial jobs), and returns the worker's Done report after a
// clean exit. Any other outcome — spawn failure, dead process, early
// EOF, malformed frame, nonzero exit, deadline — is returned as a
// plain error for the caller to wrap in a WorkerError.
func (p *Proc) runJob(ctx context.Context, job Job, onRow func(trials.Result) error) (*Done, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cancel context.CancelFunc
	if p.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.Deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	cmd, err := p.command(ctx)
	if err != nil {
		return nil, fmt.Errorf("building worker command: %w", err)
	}
	cmd.Stderr = p.stderr()
	// A killed worker must never wedge the coordinator in Wait.
	cmd.WaitDelay = 5 * time.Second
	isolateWorker(cmd)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning worker: %w", err)
	}
	// fail reaps the worker on every error path: cancel kills a process
	// that is still alive (CommandContext), Wait collects it.
	fail := func(cause error) (*Done, error) {
		cancel()
		stdin.Close()
		cmd.Wait()
		return nil, cause
	}
	if err := newFrameWriter(stdin).send(&job); err != nil {
		return fail(fmt.Errorf("sending job: %w", err))
	}
	if err := stdin.Close(); err != nil {
		return fail(fmt.Errorf("closing job stream: %w", err))
	}
	done, err := readReplies(newFrameReader(bufio.NewReader(stdout)), onRow)
	if err != nil {
		return fail(err)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("worker exit after done: %w", err)
	}
	return done, nil
}

// run adapts runJob to the shared runner seam (seams.go); a pipe
// worker is spawned per job, so the shard and attempt numbers only
// matter to the fault hook.
func (p *Proc) run(ctx context.Context, _, _ int, job Job, onRow func(trials.Result) error) (*Done, error) {
	return p.runJob(ctx, job, onRow)
}

func (p *Proc) fault(sh, attempt int) *WorkerFault {
	if p.Fault != nil {
		return p.Fault(sh, attempt)
	}
	return nil
}

// Attempt returns the shard.AttemptFunc that executes trial-range
// attempts in worker processes (see attemptFunc): workload name and
// spec out, rows back, validated strictly in trial order; a fleet with
// no workload annotation transparently runs in-process.
func (p *Proc) Attempt() shard.AttemptFunc { return attemptFunc(p) }

// Exec returns the shard.ExecFunc that executes shard-local sort
// attempts in worker processes: the self-contained shard.SortJob goes
// out, the sorted bytes and the shard machine's exact core.Resources
// report come back.
func (p *Proc) Exec() shard.ExecFunc { return machineExec(p, sortJob) }

// ExecScan returns the relalg.ScanExecFunc that executes shard-local
// operator-scan attempts (anti-merge, product) in worker processes —
// the scan-side twin of Exec, so planned queries honor `-transport
// proc` end to end.
func (p *Proc) ExecScan() relalg.ScanExecFunc { return machineExec(p, scanJob) }
