package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"time"

	"extmem/internal/core"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/trials"
)

// ProtocolVersion is the frame-protocol generation. It is the first
// field of the handshake both ends of a TCP connection exchange before
// any job frame; a mismatch is rejected with a *HandshakeError instead
// of letting two incompatible builds feed each other gob garbage. The
// pipe transport (Proc) needs no handshake — it spawns its own
// executable, so coordinator and worker are the same build by
// construction.
const ProtocolVersion = 3

// Hello is the handshake frame that opens every TCP connection, sent
// coordinator→worker and answered worker→coordinator before the job
// frame. Version pins the frame protocol; Fingerprint pins the
// workload registry (trials.RegistryFingerprint), so a worker binary
// that would rebuild a different trial function — or none — under the
// coordinator's workload name is rejected up front.
type Hello struct {
	Version     int
	Fingerprint uint64
}

// MaxFrame bounds a single frame's payload. The largest legitimate
// frame is a sort job or its reply — a shard's run-range payload —
// so the cap is generous for those and still small enough that a
// corrupted length prefix cannot make the decoder allocate the moon.
const MaxFrame = 1 << 26 // 64 MiB

// maxHelloFrame bounds the handshake frame, which both ends read
// before they know anything about the peer. An encoded Hello is a few
// dozen bytes, so a peer declaring more is refused before any
// allocation: it cannot make a worker reserve MaxFrame bytes and hold
// the connection for the handshake timeout.
const maxHelloFrame = 1 << 10

// writeFrame encodes v as one length-prefixed gob frame: a 4-byte
// big-endian payload length followed by the payload. Every frame is an
// independent gob stream, so a reader can decode any frame without the
// state of the ones before it — which is what lets the coordinator
// treat a truncated or garbled frame as the death of that worker
// rather than of the whole transport. The header is reserved in the
// encode buffer and the whole frame leaves in a single Write: one
// syscall per frame on a pipe, and no header-only segment for TCP
// (without it, every frame could cost two packets under TCP_NODELAY).
func writeFrame(w io.Writer, v any) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, 4))
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	n := buf.Len() - 4
	if n > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf.Bytes()[:4], uint32(n))
	_, err := w.Write(buf.Bytes())
	return err
}

// readFrame decodes the next frame into v. A clean end of stream at a
// frame boundary returns io.EOF; a stream that dies inside a frame
// returns io.ErrUnexpectedEOF; a length prefix past MaxFrame is
// rejected before any allocation. Arbitrary input bytes yield an
// error, never a panic — the FuzzTransportFrame target enforces this.
func readFrame(r io.Reader, v any) error { return readFrameMax(r, v, MaxFrame) }

// readReplies decodes a worker's reply stream: row frames, each handed
// to onRow, then the Done frame. A row frame with no onRow to take it,
// an empty frame or a Done carrying the worker's error ends the stream
// with an error.
func readReplies(r io.Reader, onRow func(trials.Result) error) (*Done, error) {
	for {
		var rep Reply
		if err := readFrame(r, &rep); err != nil {
			return nil, fmt.Errorf("reading reply: %w", err)
		}
		switch {
		case rep.Row != nil:
			if onRow == nil {
				return nil, errors.New("unexpected row frame")
			}
			if err := onRow(*rep.Row); err != nil {
				return nil, err
			}
		case rep.Done != nil:
			if rep.Done.Err != "" {
				return nil, fmt.Errorf("worker reported: %s", rep.Done.Err)
			}
			return rep.Done, nil
		default:
			return nil, errors.New("empty reply frame")
		}
	}
}

// readFrameMax is readFrame with the length cap limit.
func readFrameMax(r io.Reader, v any, limit uint32) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > limit {
		return fmt.Errorf("transport: frame length %d exceeds the %d-byte limit", n, limit)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return gob.NewDecoder(bytes.NewReader(buf)).Decode(v)
}

// Job is the single coordinator→worker frame: exactly one of Trial,
// Sort or Scan describes the shard assignment, and Fault, when
// non-nil, is a self-applied chaos order (the worker is told to die —
// real process or connection death, not a simulated panic).
type Job struct {
	Trial *TrialJob
	Sort  *shard.SortJob
	Scan  *relalg.ScanJob
	Fault *WorkerFault
}

// TrialJob assigns a contiguous global trial-index range: the worker
// rebuilds the trial function from the workload's registered builder
// and runs a shard-local trials.Engine over [Offset, Offset+Trials).
// Randomness never travels — the worker re-derives every trial's rng
// from (Seed, global index) exactly as an in-process shard would.
type TrialJob struct {
	Workload trials.Workload
	Trials   int   // range length
	Offset   int   // first global trial index of the range
	Parallel int   // worker goroutines inside the worker process
	Seed     int64 // the fleet's root seed
}

// Reply is one worker→coordinator frame: a streamed per-trial row or
// the terminal Done report. Rows arrive strictly in trial order; the
// Done frame is last.
type Reply struct {
	Row  *trials.Result
	Done *Done
}

// Done terminates a worker's reply stream. A non-empty Err means the
// job failed worker-side (the coordinator maps it onto the same
// retry → fallback path as process death); Machine carries a sort or
// operator-scan job's result.
type Done struct {
	Err     string
	Machine *MachineDone
}

// MachineDone is the result of a machine job (shard.SortJob or
// relalg.ScanJob): the shard's output bytes and the shard-local
// machine's exact (r, s, t) census, crossing the boundary intact.
type MachineDone struct {
	Out       []byte
	Resources core.Resources
}

// WorkerFault is a deterministic self-destruct order shipped inside a
// job frame — the chaos plan of the transport layer. Unlike
// faults.Plan, which simulates failure inside a live process, a
// WorkerFault makes the process itself misbehave: stall, stream
// garbage, or die mid-stream, so the coordinator's failure handling is
// exercised against the real thing. The zero value is no fault.
type WorkerFault struct {
	// Stall sleeps before the job executes — the straggler fault; pair
	// it with a Deadline to exercise the deadline → retry path. On a
	// serve worker the sleep ends early, without running the job, when
	// the coordinator hangs up.
	Stall time.Duration

	// Exit ends the worker's reply stream after ExitAfter row frames
	// (for sort and scan jobs: before the Done frame regardless),
	// without a Done frame: the coordinator sees the stream end
	// mid-job. A pipe worker exits its process; a TCP serve handler
	// closes its connection and survives to serve the next one, since
	// one serve process hosts many connections (possibly inside the
	// coordinator's test process).
	Exit      bool
	ExitAfter int

	// Kill upgrades Exit to self-delivered SIGKILL — uncatchable, no
	// deferred cleanup, the closest a worker can get to a machine
	// failure. Honored on the pipe transport only, where the worker
	// process is the coordinator's own disposable child; serve
	// handlers close the connection as for Exit.
	Kill bool

	// Corrupt streams a malformed frame (an oversized length prefix)
	// instead of the first reply.
	Corrupt bool
}
