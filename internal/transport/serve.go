package transport

// serve.go is the worker side of the TCP transport: a listener that
// accepts connections and runs job after job on each through the same
// job runners the pipe worker uses (worker.go). The handshake contract
// is strict and symmetric — each end sends its Hello (protocol
// version, workload-registry fingerprint) and validates the peer's
// before any job frame crosses, once per connection; a mismatched
// build is rejected with a typed *HandshakeError instead of being
// allowed to exchange gob garbage. A connection serves its next job
// only after the last one ended with a Done frame; any other end closes
// it. Termination orders inside a job (WorkerFault) execute as
// connection death here, not process death: one serve process hosts
// many connections — possibly inside the coordinator's own process
// (LocalWorkers) — so a chaos order may kill only the connection it
// rode in on.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"extmem/internal/trials"
)

// handshakeTimeout bounds the handshake exchange on the serve side, so
// a connection that never speaks cannot pin a handler goroutine
// forever, and it bounds each later job frame from its first byte on.
// Once the job frame arrives the deadline is lifted — jobs may
// legitimately run long, and the coordinator owns the attempt
// deadline — and between jobs a connection waits without one.
const handshakeTimeout = 10 * time.Second

// Serve accepts connections on ln and serves jobs on each until ctx is
// cancelled, then closes the listener and every live connection, idle
// ones included, and waits for in-flight handlers to drain. A nil
// stderr means os.Stderr. The error is nil on a cancellation-triggered
// shutdown.
func Serve(ctx context.Context, ln net.Listener, stderr io.Writer) error {
	if stderr == nil {
		stderr = os.Stderr
	}
	var (
		mu    sync.Mutex
		conns = map[net.Conn]struct{}{}
		wg    sync.WaitGroup
	)
	stop := context.AfterFunc(ctx, func() {
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
				conn.Close()
			}()
			handleConn(ctx, conn, stderr)
		}()
	}
}

// handleConn runs one connection: the handshake, then jobs, each with
// its reply stream, until the peer closes the connection or a job ends
// without a Done frame. Between jobs it waits for the next job's first
// byte with no deadline, and a connection closed there ends quietly.
func handleConn(ctx context.Context, conn net.Conn, stderr io.Writer) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReader(conn)
	in, out := newFrameReader(br), newFrameWriter(conn)
	in.reuse = true
	hello, err := in.hello()
	if err != nil {
		fmt.Fprintln(stderr, "stworker: reading handshake:", err)
		return
	}
	// Reply with this build's identity before judging the peer's: the
	// coordinator runs the same comparison on its side, so whichever
	// end is told first, the verdict is symmetric.
	if err := out.send(&Hello{Version: ProtocolVersion, Fingerprint: trials.RegistryFingerprint()}); err != nil {
		fmt.Fprintln(stderr, "stworker: sending handshake:", err)
		return
	}
	if err := checkHello(hello); err != nil {
		fmt.Fprintln(stderr, "stworker: rejecting connection:", err)
		return
	}
	for {
		var job Job
		if err := in.recv(&job); err != nil {
			fmt.Fprintln(stderr, "stworker: reading job:", err)
			return
		}
		if !serveConnJob(ctx, conn, br, job, out, stderr) {
			return
		}
		in.trim()
		conn.SetDeadline(time.Time{})
		if _, err := br.Peek(1); err != nil {
			return
		}
		conn.SetDeadline(time.Now().Add(handshakeTimeout))
	}
}

// serveConnJob runs one job of a connection and reports whether it
// ended with a Done frame, so that the connection may carry the next.
// The job's context ends when the serve loop stops or the peer hangs
// up: the coordinator sends nothing during a job, so a peek at the
// connection returns only when it closes — or, once the Done frame is
// out, when the next job arrives or the handler interrupts it.
func serveConnJob(ctx context.Context, conn net.Conn, br *bufio.Reader, job Job, out *frameWriter, stderr io.Writer) bool {
	// The job's header and its last data frame are in: only now does
	// the handshake deadline give way to the hang-up watcher, so a
	// coordinator that stalls inside its job cannot pin the handler.
	conn.SetDeadline(time.Time{})
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		// A peek consumes nothing: bytes that arrive are the next
		// job's, read by the handler once this watcher is gone.
		if _, err := br.Peek(1); err != nil {
			cancel()
		}
	}()
	// Termination orders are connection death here: the peer sees the
	// reset mid-stream, the serve loop lives on to take the retry.
	die := func(*WorkerFault) { conn.Close() }
	code := serveJob(jobCtx, job, out, die, stderr)
	conn.SetReadDeadline(time.Now()) // ends the watcher's peek
	<-hungUp
	return code == 0
}

// ListenAndServe listens on addr and serves shard jobs until ctx is
// cancelled. The bound address is announced on stderr ("listening on
// host:port") so a caller that asked for port 0 — or a script waiting
// for worker readiness — can read it off.
func ListenAndServe(ctx context.Context, addr string, stderr io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if stderr != nil {
		fmt.Fprintf(stderr, "stworker: listening on %s\n", ln.Addr())
	}
	return Serve(ctx, ln, stderr)
}

// ServeMain is the TCP worker entry point of a hosting binary
// (`stbench -serve addr`, `stworker -listen addr`, or the EnvListen
// marker): serve shard jobs until the process is interrupted or
// terminated, then drain and exit. Returns the process exit code.
func ServeMain(addr string, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := ListenAndServe(ctx, addr, stderr); err != nil {
		fmt.Fprintln(stderr, "stworker:", err)
		return 1
	}
	return 0
}

// LocalWorkers starts n loopback TCP workers served from goroutines
// inside this process and returns a transport dialing them plus a stop
// function that closes the transport's idle connections, shuts the
// listeners down and drains in-flight handlers. It powers the
// self-hosted tcp sweeps of the experiments and tests: the handlers
// run the same serve loop a remote stworker would, so every shard
// attempt still crosses a real TCP connection, handshake and framing
// included — only process isolation is mocked out, and the
// failure-matrix tests cover that separately with spawned worker
// processes.
func LocalWorkers(n int) (*TCP, func(), error) {
	ctx, cancel := context.WithCancel(context.Background())
	var (
		addrs []string
		lns   []net.Listener
		wg    sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cancel()
			for _, l := range lns {
				l.Close()
			}
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			Serve(ctx, ln, io.Discard)
		}()
	}
	tr := &TCP{Workers: addrs}
	stop := func() {
		tr.closeIdle()
		cancel()
		wg.Wait()
	}
	return tr, stop, nil
}
