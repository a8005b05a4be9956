package transport

// tcp.go is the multi-host shard transport: the same length-prefixed
// header and data frames the pipe transport speaks, dialed over TCP to
// workers that may live on other machines. One connection carries one
// job — handshake, job, reply stream — so connection lifetime equals
// attempt lifetime and every network failure mode (refused dial, peer
// reset mid-frame, a stall past the attempt deadline) maps onto
// exactly one failed attempt. Network death is process death: the
// coordinator cannot tell a crashed remote worker from a cut cable,
// and it does not need to — both surface as a *WorkerError, both take
// the retry → backoff → chaos-free coordinator-fallback path, and
// neither can move an output byte.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/trials"
)

// TCP is the multi-host shard transport: every shard attempt dials one
// worker address, performs the handshake, ships the job frame and
// streams the replies back over the connection. Attempts are assigned
// to workers round-robin by shard index, and a retry moves to the next
// worker in the ring — a shard struck by one dead worker heals through
// its neighbours before the coordinator absorbs the range itself. A
// TCP value carries no per-run state — one value can serve any number
// of concurrent fleets, sorts and scans.
type TCP struct {
	// Workers are the worker addresses (host:port) the transport dials.
	// Empty means every attempt fails — and therefore every shard falls
	// back to the coordinator; validation belongs to the caller (the
	// CLIs reject an empty or malformed list with exit 2).
	Workers []string

	// Deadline bounds one attempt's wall clock — dial completion to
	// Done frame — as an absolute read/write deadline on the
	// connection; 0 means unbounded. A stalled worker or a black-holed
	// route surfaces as a timeout error on the next read or write, and
	// the attempt fails like any other worker death.
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

// run executes one job over one connection: dial, handshake, job
// frame, reply stream. Every failure — refused or timed-out dial,
// handshake mismatch, peer reset mid-frame, deadline exceeded — is
// returned as a plain error for the shared seam layer (seams.go) to
// wrap in a WorkerError.
func (p *TCP) run(ctx context.Context, sh, attempt int, job Job, onRow func(trials.Result) error) (*Done, error) {
	if len(p.Workers) == 0 {
		return nil, errors.New("no workers configured")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	addr := p.worker(sh, attempt)
	d := net.Dialer{Timeout: p.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dialing worker %s: %w", addr, err)
	}
	defer conn.Close()
	// Cancellation must interrupt a blocked read or write; closing the
	// connection is the portable way to do that.
	stopWatch := context.AfterFunc(ctx, func() { conn.Close() })
	defer stopWatch()
	if p.Deadline > 0 {
		if err := conn.SetDeadline(time.Now().Add(p.Deadline)); err != nil {
			return nil, fmt.Errorf("setting deadline for %s: %w", addr, err)
		}
	}
	out := newFrameWriter(conn)
	if err := out.send(&Hello{Version: ProtocolVersion, Fingerprint: trials.RegistryFingerprint()}); err != nil {
		return nil, fmt.Errorf("sending handshake to %s: %w", addr, err)
	}
	in := newFrameReader(bufio.NewReader(conn))
	hello, err := in.hello()
	if err != nil {
		return nil, fmt.Errorf("reading handshake from %s: %w", addr, err)
	}
	if err := checkHello(hello); err != nil {
		return nil, fmt.Errorf("worker %s: %w", addr, err)
	}
	if err := out.send(&job); err != nil {
		return nil, fmt.Errorf("sending job to %s: %w", addr, err)
	}
	done, err := readReplies(in, onRow)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", addr, err)
	}
	return done, nil
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
