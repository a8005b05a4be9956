package transport

// tcp.go is the multi-host shard transport: the same length-prefixed
// header and data frames the pipe transport speaks, dialed over TCP to
// workers that may live on other machines. A connection carries a
// handshake and then one job at a time, each with its reply stream,
// and goes back to its worker's idle set only after a clean Done
// frame: every network failure mode (refused dial, peer reset
// mid-frame, a stall past the attempt deadline) still maps onto
// exactly one failed attempt, and kills its connection. Network death
// is process death: the coordinator cannot tell a crashed remote
// worker from a cut cable, and it does not need to — both surface as
// a *WorkerError, both take the retry → backoff → chaos-free
// coordinator-fallback path, and neither can move an output byte.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/trials"
)

// TCP is the multi-host shard transport: every shard attempt takes a
// connection to one worker address — an idle one it kept, or a new
// one it dials and shakes hands on — ships the job frame and streams
// the replies back over it. Attempts are assigned to workers
// round-robin by shard index, and a retry moves to the next worker in
// the ring — a shard struck by one dead worker heals through its
// neighbours before the coordinator absorbs the range itself. The only
// state a TCP value keeps across attempts is its idle connections, so
// one value can serve any number of concurrent fleets, sorts and
// scans; it must not be copied once used.
type TCP struct {
	// Workers are the worker addresses (host:port) the transport dials.
	// Empty means every attempt fails — and therefore every shard falls
	// back to the coordinator; validation belongs to the caller (the
	// CLIs reject an empty or malformed list with exit 2).
	Workers []string

	// Deadline bounds one attempt's wall clock — from taking or
	// dialing its connection to the Done frame — as an absolute
	// read/write deadline on the connection, cleared before the
	// connection goes idle; 0 means unbounded. A stalled worker or a
	// black-holed route surfaces as a timeout error on the next read
	// or write, and the attempt fails like any other worker death.
	Deadline time.Duration

	// DialTimeout bounds the dial alone; 0 means the dialer's default.
	// Connection refusal fails fast regardless — the timeout is for
	// routes that drop SYNs on the floor.
	DialTimeout time.Duration

	// Fault, when non-nil, is consulted per (shard, attempt) and ships
	// the returned order inside the job frame — deterministic chaos
	// against real connections, the TCP twin of Proc.Fault. Serve
	// handlers execute Exit (and Kill) as connection death and Stall as
	// a wait on the job's context (see WorkerFault).
	Fault func(shard, attempt int) *WorkerFault

	mu   sync.Mutex
	idle map[string][]*link // per worker address, connections between attempts
}

// link is one connection to a worker with the two gob streams that
// live as long as it does.
type link struct {
	conn net.Conn
	br   *bufio.Reader
	in   *frameReader
	out  *frameWriter
}

// ParseWorkers validates a -workers flag value: a non-empty
// comma-separated list of host:port worker addresses. It rejects the
// malformed list up front — with the offending address named — so the
// CLIs can exit 2 before any shard dials a typo.
func ParseWorkers(s string) ([]string, error) {
	if s == "" {
		return nil, errors.New("empty worker list (want host:port,...)")
	}
	addrs := strings.Split(s, ",")
	for _, a := range addrs {
		host, port, err := net.SplitHostPort(a)
		if err != nil {
			return nil, fmt.Errorf("bad worker address %q: %v", a, err)
		}
		if host == "" || port == "" {
			return nil, fmt.Errorf("worker address %q needs both a host and a port", a)
		}
	}
	return addrs, nil
}

// HandshakeError is a build mismatch discovered during the TCP
// handshake: the peer speaks another frame-protocol generation, or its
// workload registry differs from this build's, so shipped workload
// names would not rebuild the same trial functions. It is rejected
// before any job frame — a typed error instead of gob garbage — and
// the WorkerError that wraps it takes the ordinary attempt-failure
// path: mismatched attempts burn retries and the coordinator absorbs
// the work itself, output bytes intact.
type HandshakeError struct {
	Field string // "protocol version" or "workload registry"
	Got   uint64 // the peer's value
	Want  uint64 // this build's value
}

func (e *HandshakeError) Error() string {
	return fmt.Sprintf("transport: handshake %s mismatch: peer has %#x, this build has %#x",
		e.Field, e.Got, e.Want)
}

// checkHello validates a peer's handshake against this build — the
// same comparison on both ends of the connection.
func checkHello(h Hello) error {
	if h.Version != ProtocolVersion {
		return &HandshakeError{Field: "protocol version", Got: uint64(h.Version), Want: ProtocolVersion}
	}
	if fp := trials.RegistryFingerprint(); h.Fingerprint != fp {
		return &HandshakeError{Field: "workload registry", Got: h.Fingerprint, Want: fp}
	}
	return nil
}

// worker resolves the round-robin assignment: shard sh's first attempt
// goes to worker sh mod n, and each retry moves one step around the
// ring. Deterministic in (shard, attempt), so a fixed fault plan and a
// fixed worker list yield a fixed census.
func (p *TCP) worker(sh, attempt int) string {
	i := (sh + attempt - 1) % len(p.Workers)
	if i < 0 {
		i = 0
	}
	return p.Workers[i]
}

// run executes one job over one connection: take an idle connection
// to the assigned worker or dial one and shake hands, send the job
// frame, read the reply stream. Every failure — refused or timed-out
// dial, handshake mismatch, peer reset mid-frame, deadline exceeded,
// cancellation — closes the connection and is returned as a plain
// error for the shared seam layer (seams.go) to wrap in a
// WorkerError. Only a connection whose attempt read a clean Done
// frame, and whose context was not cancelled, goes back to the idle
// set.
func (p *TCP) run(ctx context.Context, sh, attempt int, job Job, onRow func(trials.Result) error) (*Done, error) {
	if len(p.Workers) == 0 {
		return nil, errors.New("no workers configured")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	addr := p.worker(sh, attempt)
	l, fresh := p.take(addr), false
	if l == nil {
		d := net.Dialer{Timeout: p.DialTimeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("dialing worker %s: %w", addr, err)
		}
		br := bufio.NewReader(conn)
		l, fresh = &link{conn: conn, br: br, in: newFrameReader(br), out: newFrameWriter(conn)}, true
	}
	// Cancellation must interrupt a blocked read or write; closing the
	// connection is the portable way to do that.
	stopWatch := context.AfterFunc(ctx, func() { l.conn.Close() })
	done, err := p.exchange(l, addr, fresh, job, onRow)
	if !stopWatch() || err != nil {
		l.conn.Close()
		return done, err
	}
	if p.Deadline > 0 && l.conn.SetDeadline(time.Time{}) != nil {
		l.conn.Close()
		return done, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idle == nil {
		p.idle = map[string][]*link{}
	}
	p.idle[addr] = append(p.idle[addr], l)
	return done, nil
}

// exchange runs one attempt on l: the handshake when the connection
// is fresh, the job frame, the reply stream, all under the attempt's
// deadline.
func (p *TCP) exchange(l *link, addr string, fresh bool, job Job, onRow func(trials.Result) error) (*Done, error) {
	if p.Deadline > 0 {
		if err := l.conn.SetDeadline(time.Now().Add(p.Deadline)); err != nil {
			return nil, fmt.Errorf("setting deadline for %s: %w", addr, err)
		}
	}
	if fresh {
		if err := l.out.send(&Hello{Version: ProtocolVersion, Fingerprint: trials.RegistryFingerprint()}); err != nil {
			return nil, fmt.Errorf("sending handshake to %s: %w", addr, err)
		}
		hello, err := l.in.hello()
		if err != nil {
			return nil, fmt.Errorf("reading handshake from %s: %w", addr, err)
		}
		if err := checkHello(hello); err != nil {
			return nil, fmt.Errorf("worker %s: %w", addr, err)
		}
	}
	if err := l.out.send(&job); err != nil {
		return nil, fmt.Errorf("sending job to %s: %w", addr, err)
	}
	done, err := readReplies(l.in, onRow)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", addr, err)
	}
	return done, nil
}

// take returns an idle connection to addr that is still open, or nil.
// An idle connection the worker closed, reset or wrote to while it sat
// idle is closed here and costs no attempt. Connections are dialed
// only when none is idle, so a worker never has more of them — idle or
// in use — than attempts that ran on it at once.
func (p *TCP) take(addr string) *link {
	for {
		p.mu.Lock()
		ls := p.idle[addr]
		var l *link
		if n := len(ls); n > 0 {
			l, p.idle[addr] = ls[n-1], ls[:n-1]
		}
		p.mu.Unlock()
		if l == nil || l.br.Buffered() == 0 && idleOpen(l.conn) {
			return l
		}
		l.conn.Close()
	}
}

// closeIdle closes every idle connection.
func (p *TCP) closeIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr, ls := range p.idle {
		for _, l := range ls {
			l.conn.Close()
		}
		delete(p.idle, addr)
	}
}

func (p *TCP) fault(sh, attempt int) *WorkerFault {
	if p.Fault != nil {
		return p.Fault(sh, attempt)
	}
	return nil
}

// Attempt returns the shard.AttemptFunc that executes trial-range
// attempts on TCP workers — the multi-host twin of Proc.Attempt, with
// identical workload shipping, row-order validation and fallback
// semantics (see seams.go).
func (p *TCP) Attempt() shard.AttemptFunc { return attemptFunc(p) }

// Exec returns the shard.ExecFunc that executes shard-local sort
// attempts on TCP workers — the multi-host twin of Proc.Exec.
func (p *TCP) Exec() shard.ExecFunc { return machineExec(p, sortJob) }

// ExecScan returns the relalg.ScanExecFunc that executes shard-local
// operator-scan attempts on TCP workers — the multi-host twin of
// Proc.ExecScan.
func (p *TCP) ExecScan() relalg.ScanExecFunc { return machineExec(p, scanJob) }
