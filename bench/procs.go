package main

// procs.go owns every process the benchmark starts besides itself —
// the long-lived TCP workers of query-tcp and the per-attempt pipe
// workers of fleet-proc — and reads their resource use from the
// kernel: /proc for live processes, the wait status for exited ones.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"extmem/internal/transport"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the user plus system CPU time of a live process.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it start with
	// the state (field 3), so utime and stime (14, 15) are at 11 and 12.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is the peak resident set size (VmHWM) of a live process in
// bytes; pid 0 means this process.
func peakRSS(pid int) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", path)
}

// wireMeter measures the bytes a job moves over its links: the bytes
// this process reads plus writes through system calls (rchar + wchar in
// /proc/self/io), sockets and pipes included. The jobs that use it
// touch no file, so every such byte crossed a link to a worker.
type wireMeter struct {
	start int64
	err   error
}

func startWire() wireMeter {
	n, err := selfIO()
	return wireMeter{n, err}
}

// note records the bytes moved since the meter started, in total and
// per input byte; an unreadable /proc/self/io records nothing.
func (w wireMeter) note(tr *tracer, inputBytes int64) {
	n, err := selfIO()
	if err != nil || w.err != nil {
		return
	}
	tr.note("transport.wire_mb", float64(n-w.start)/1e6)
	tr.note("transport.wire_per_input_byte", float64(n-w.start)/float64(inputBytes))
}

func selfIO() (int64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	var total int64
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if ok && (k == "rchar" || k == "wchar") {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, nil
}

// workerCmd builds a command running this executable as a shard
// worker, with env added to this process's environment.
func workerCmd(ctx context.Context, env []string, args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), env...)
	return cmd, nil
}

// tcpWorkers is a set of TCP shard worker processes serving on loopback.
type tcpWorkers struct {
	cmds  []*exec.Cmd
	addrs []string
}

// startTCPWorkers starts n TCP workers and returns once each has
// announced its address. On error every started worker is stopped.
func startTCPWorkers(ctx context.Context, n int, stderr io.Writer) (*tcpWorkers, error) {
	ws := &tcpWorkers{}
	for i := 0; i < n; i++ {
		const listen = "127.0.0.1:0"
		// The environment marker routes test binaries, whose arguments
		// belong to the testing package, into the serve loop as well.
		cmd, err := workerCmd(context.Background(), []string{transport.EnvListen + "=" + listen},
			transport.WorkerArg, "-listen", listen)
		if err != nil {
			ws.stop()
			return nil, err
		}
		// Its own process group keeps a terminal's SIGINT from reaching
		// the worker: the benchmark stops it. Pdeathsig kills it should
		// the benchmark die without doing so.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		ann := &announceWriter{out: stderr, addr: make(chan string, 1)}
		cmd.Stderr = ann
		if err := cmd.Start(); err != nil {
			ws.stop()
			return nil, fmt.Errorf("starting TCP worker: %w", err)
		}
		ws.cmds = append(ws.cmds, cmd)
		fmt.Fprintf(stderr, "bench: worker pid %d\n", cmd.Process.Pid)
		select {
		case addr := <-ann.addr:
			ws.addrs = append(ws.addrs, addr)
		case <-time.After(10 * time.Second):
			ws.stop()
			return nil, errors.New("TCP worker did not announce its address within 10s")
		case <-ctx.Done():
			ws.stop()
			return nil, ctx.Err()
		}
	}
	return ws, nil
}

func (ws *tcpWorkers) pids() []int {
	pids := make([]int, len(ws.cmds))
	for i, c := range ws.cmds {
		pids[i] = c.Process.Pid
	}
	return pids
}

// usage sums the workers' CPU time and peak RSS so far.
func (ws *tcpWorkers) usage() (time.Duration, int64, error) {
	var cpu time.Duration
	var rss int64
	for _, pid := range ws.pids() {
		c, err := procCPU(pid)
		if err != nil {
			return 0, 0, err
		}
		r, err := peakRSS(pid)
		if err != nil {
			return 0, 0, err
		}
		cpu += c
		rss += r
	}
	return cpu, rss, nil
}

// stop kills every worker and waits until each has exited. Wait
// reports the kill itself, so its error says nothing new.
func (ws *tcpWorkers) stop() {
	for _, c := range ws.cmds {
		c.Process.Kill()
	}
	for _, c := range ws.cmds {
		c.Wait()
	}
	ws.cmds = nil
}

// announceWriter receives a TCP worker's stderr: it picks the address
// out of the worker's "listening on" line and forwards every other line.
type announceWriter struct {
	mu   sync.Mutex
	buf  []byte
	out  io.Writer
	addr chan string // receives the announced address once
	seen bool
}

func (w *announceWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if addr, ok := strings.CutPrefix(line, "stworker: listening on "); ok && !w.seen {
			w.seen = true
			w.addr <- addr
			continue
		}
		fmt.Fprintln(w.out, line)
	}
}

// childLog records the pipe worker processes spawned during one job, or
// one attempt, so their CPU time and peak RSS can be read from their
// wait status once the transport has reaped them.
type childLog struct {
	mu   sync.Mutex
	cmds []*exec.Cmd
}

func (l *childLog) add(c *exec.Cmd) {
	l.mu.Lock()
	l.cmds = append(l.cmds, c)
	l.mu.Unlock()
}

// drain returns the total CPU time and the largest peak RSS of the
// logged processes that have exited, and empties the log.
func (l *childLog) drain() (cpu time.Duration, rss int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.cmds {
		if c.ProcessState == nil {
			continue
		}
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			cpu += rusageCPU(ru)
			rss = max(rss, ru.Maxrss<<10)
		}
	}
	l.cmds = nil
	return cpu, rss
}

// attemptLogKey carries the childLog of one fleet attempt in its context,
// so the pipe transport's command hook can file each worker it spawns
// under the attempt that spawned it.
type attemptLogKey struct{}

// spawnHook is the pipe transport's command hook for fleet-proc: it
// builds the same self-executing worker command the transport's default
// does, and logs the process so its CPU time and peak RSS can be read
// once the transport has reaped it.
func spawnHook(jobLog *childLog) func(ctx context.Context) (*exec.Cmd, error) {
	return func(ctx context.Context) (*exec.Cmd, error) {
		// Like the transport's default, spare race-built workers the
		// detector's one-second sleep at exit.
		cmd, err := workerCmd(ctx, []string{transport.EnvWorker + "=1", "GORACE=atexit_sleep_ms=0"}, transport.WorkerArg)
		if err != nil {
			return nil, err
		}
		jobLog.add(cmd)
		if l, ok := ctx.Value(attemptLogKey{}).(*childLog); ok {
			l.add(cmd)
		}
		return cmd, nil
	}
}
