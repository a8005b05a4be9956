package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
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
// construction. Version 5 keeps a connection open across attempts,
// so a peer that keeps connections and one that drops them refuse
// each other here.
const ProtocolVersion = 5

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

// The wire format. Each direction of a connection or pipe is one gob
// stream cut into frames, and every frame is a 4-byte big-endian
// length followed by that many bytes. A header frame holds exactly one
// gob value — a Hello, a Job or a Reply — together with whatever type
// descriptors the stream has not sent yet, so each type crosses once
// per direction. A data frame holds raw bytes. The bulk byte fields of
// a header (the one list is bulk) are nil inside it: each follows the
// header as one data frame, in bulk's order, empty ones included, and
// an empty one decodes as nil, as it would under gob.
//
// A stream lives and dies with its connection, or with one worker
// process's pipes. A TCP connection carries attempt after attempt, but
// only after clean ones: an attempt that fails for any reason — a
// garbled, truncated or oversized frame included — kills its
// connection, so the decoder state such a frame leaves behind dies
// with it, and the retry starts a fresh stream. A fresh stream's first
// frame is byte-identical to the per-frame gob Hello of protocol 3,
// which is how a peer of an earlier build still reaches the version
// check and is refused with a *HandshakeError.

// MaxFrame bounds a data frame. The largest legitimate one is a sort
// job's payload or its reply — a shard's run range — so the cap is
// generous for those and still small enough that a corrupted length
// prefix cannot make the decoder allocate the moon.
const MaxFrame = 1 << 26 // 64 MiB

// maxHelloFrame bounds the handshake frame, which both ends read
// before they know anything about the peer. An encoded Hello is a few
// dozen bytes, so a peer declaring more is refused before any
// allocation: it cannot make a worker reserve MaxFrame bytes and hold
// the connection for the handshake timeout.
const maxHelloFrame = 1 << 10

// maxHeaderFrame bounds every header frame after the handshake. Bulk
// bytes travel in data frames, so a header holds only a job's or a
// reply's small fields; the largest legitimate one is a Done whose
// error carries a panic stack. A header declaring more is refused
// before any allocation.
const maxHeaderFrame = 1 << 20

// dataChunk is what a data frame's reader commits before the frame's
// bytes arrive; past it, the buffer grows only as bytes do.
const dataChunk = 1 << 20

// maxKeptData bounds the receive buffer a serve connection keeps
// between jobs (frameReader.reuse): a larger one is dropped when its
// job ends, so an idle connection never pins a MaxFrame payload.
const maxKeptData = 4 * dataChunk

// bulk is the codec's one list of bulk fields: pointers to the bulk
// byte fields of v, a *Job or a *Reply, in wire order. Each of them
// crosses as a data frame after v's header, never inside it.
func bulk(v any) []*[]byte {
	switch v := v.(type) {
	case *Job:
		var fs []*[]byte
		if v.Trial != nil {
			fs = append(fs, &v.Trial.Workload.Spec)
		}
		if v.Sort != nil {
			fs = append(fs, &v.Sort.Payload)
		}
		if v.Scan != nil {
			fs = append(fs, &v.Scan.Left, &v.Scan.Right)
		}
		return fs
	case *Reply:
		if v.Done != nil && v.Done.Machine != nil {
			return []*[]byte{&v.Done.Machine.Out}
		}
	}
	return nil
}

// frameWriter is the sending half of one direction of a connection or
// pipe: one gob encoder for the stream's whole life. After an error the
// stream is unusable, and its attempt fails with it.
type frameWriter struct {
	w   io.Writer
	buf bytes.Buffer // the header frame and data-frame lengths being built
	enc *gob.Encoder // encodes into buf
}

func newFrameWriter(w io.Writer) *frameWriter {
	fw := &frameWriter{w: w}
	fw.enc = gob.NewEncoder(&fw.buf)
	return fw
}

// send writes v — a *Hello, *Job or *Reply — as one header frame, then
// one data frame per bulk field, written straight from v's slices. The
// bulk fields are nil while the header is encoded and restored before
// send returns. All the frames leave in one write where the writer
// allows it (writev on a TCP connection), so no frame is split into a
// header-only segment.
func (fw *frameWriter) send(v any) error {
	fields := bulk(v)
	data := make([][]byte, len(fields))
	for i, f := range fields {
		data[i], *f = *f, nil
	}
	var prefix [4]byte
	fw.buf.Reset()
	fw.buf.Write(prefix[:])
	err := fw.enc.Encode(v)
	for i, f := range fields {
		*f = data[i]
	}
	if err != nil {
		return err
	}
	n := fw.buf.Len() - len(prefix)
	if n > maxHeaderFrame {
		return fmt.Errorf("transport: header frame of %d bytes exceeds the %d-byte limit", n, maxHeaderFrame)
	}
	for _, d := range data {
		if len(d) > MaxFrame {
			return fmt.Errorf("transport: data frame of %d bytes exceeds the %d-byte limit", len(d), MaxFrame)
		}
		binary.BigEndian.PutUint32(prefix[:], uint32(len(d)))
		fw.buf.Write(prefix[:])
	}
	// own holds the header and every length prefix; each non-empty data
	// slice goes out between the prefix that announces it and the next.
	own := fw.buf.Bytes()
	binary.BigEndian.PutUint32(own, uint32(n))
	bufs := make(net.Buffers, 0, 1+2*len(data))
	from := 0
	for i, d := range data {
		if len(d) == 0 {
			continue
		}
		to := 4 + n + 4*(i+1)
		bufs = append(bufs, own[from:to], d)
		from = to
	}
	if from < len(own) {
		bufs = append(bufs, own[from:])
	}
	_, err = bufs.WriteTo(fw.w)
	return err
}

// frameReader is the receiving half of one direction of a connection
// or pipe: one gob decoder for the stream's whole life, fed one header
// frame at a time from a reused buffer. After an error the stream is
// unusable, and its attempt fails with it.
type frameReader struct {
	r      io.Reader
	prefix [4]byte
	hdr    []byte       // the current header frame
	src    bytes.Reader // the decoder's source: hdr
	dec    *gob.Decoder

	// reuse, set by the serve side, reads a value's data frames into
	// data, one buffer the stream keeps from value to value: the bulk
	// fields recv fills are then valid only until the next recv. Job
	// bodies copy them onto tapes, so a job is done with them when it
	// ends. Otherwise every bulk field gets a slice of its own.
	reuse bool
	data  []byte
}

func newFrameReader(r io.Reader) *frameReader {
	fr := &frameReader{r: r}
	fr.dec = gob.NewDecoder(&fr.src)
	return fr
}

// hello reads the peer's handshake frame under the maxHelloFrame cap.
func (fr *frameReader) hello() (Hello, error) {
	var h Hello
	err := fr.recvMax(&h, maxHelloFrame)
	return h, err
}

// recv reads the next header frame into v — a *Job or *Reply — and
// each of its bulk fields from the data frame that follows it. A clean
// end of stream before the header returns io.EOF; a stream that dies
// inside a frame returns io.ErrUnexpectedEOF; a length prefix past its
// cap is refused before any allocation. Arbitrary input bytes yield an
// error, never a panic — the FuzzTransportFrame target enforces this.
func (fr *frameReader) recv(v any) error { return fr.recvMax(v, maxHeaderFrame) }

// recvMax is recv with the header cap limit.
func (fr *frameReader) recvMax(v any, limit int) error {
	n, err := fr.length(limit)
	if err != nil {
		return err
	}
	if n == 0 {
		return errors.New("transport: empty header frame")
	}
	if cap(fr.hdr) < n {
		fr.hdr = make([]byte, n)
	}
	fr.hdr = fr.hdr[:n]
	if _, err := io.ReadFull(fr.r, fr.hdr); err != nil {
		return unexpected(err)
	}
	if !wholeMessages(fr.hdr) {
		return errors.New("transport: header frame does not hold whole gob messages")
	}
	fr.src.Reset(fr.hdr)
	if err := fr.dec.Decode(v); err != nil {
		return err
	}
	if k := fr.src.Len(); k > 0 {
		return fmt.Errorf("transport: %d trailing bytes after the value in a header frame", k)
	}
	var buf []byte
	if fr.reuse {
		buf = fr.data[:0]
	}
	for _, f := range bulk(v) {
		if *f != nil {
			return errors.New("transport: bulk bytes inside a header frame")
		}
		n, err := fr.length(MaxFrame)
		if err != nil {
			return unexpected(err)
		}
		if n == 0 {
			continue
		}
		if !fr.reuse {
			buf = nil
		}
		from := len(buf)
		if buf, err = readData(fr.r, buf, n); err != nil {
			return err
		}
		*f = buf[from:len(buf):len(buf)]
	}
	if fr.reuse {
		fr.data = buf
	}
	return nil
}

// trim drops a kept receive buffer larger than maxKeptData; the serve
// side calls it when a job ends.
func (fr *frameReader) trim() {
	if cap(fr.data) > maxKeptData {
		fr.data = nil
	}
}

// wholeMessages reports whether b is a run of whole gob messages, each
// a count and then that many bytes. The decoder allocates a message's
// count before reading it, so this check is what holds a header's cost
// to its frame's cap.
func wholeMessages(b []byte) bool {
	for len(b) > 0 {
		// gob's unsigned encoding: a byte below 0x80 is the value, any
		// other is the negated width of the big-endian value after it.
		n, w := uint64(b[0]), 1
		if b[0] >= 0x80 {
			k := -int(int8(b[0]))
			if k > 8 || k >= len(b) {
				return false
			}
			n = 0
			for _, d := range b[1 : 1+k] {
				n = n<<8 | uint64(d)
			}
			w += k
		}
		if n > uint64(len(b)-w) {
			return false
		}
		b = b[w+int(n):]
	}
	return true
}

// length reads a frame's length prefix and refuses one past limit.
func (fr *frameReader) length(limit int) (int, error) {
	if _, err := io.ReadFull(fr.r, fr.prefix[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(fr.prefix[:])
	if n > uint32(limit) {
		return 0, fmt.Errorf("transport: frame length %d exceeds the %d-byte limit", n, limit)
	}
	return int(n), nil
}

// readData appends a data frame's n bytes to buf, reading into buf's
// spare capacity first. Past it, it commits at most dataChunk bytes
// before they arrive and then at most doubles what of the frame has
// arrived, so a peer that declares MaxFrame and sends a few bytes
// costs one chunk. Growing copies buf, and a slice taken from buf
// before keeps its bytes.
func readData(r io.Reader, buf []byte, n int) ([]byte, error) {
	from := len(buf)
	end := from + n
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), len(buf)+min(end-len(buf), max(len(buf)-from, dataChunk)))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), end)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, unexpected(err)
		}
		if len(buf) == end {
			return buf, nil
		}
	}
}

// unexpected maps a clean end of stream inside a frame onto
// io.ErrUnexpectedEOF: only a header's length prefix may end cleanly.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readReplies decodes a worker's reply stream: row frames, each handed
// to onRow, then the Done frame. A row frame with no onRow to take it,
// an empty frame or a Done carrying the worker's error ends the stream
// with an error.
func readReplies(fr *frameReader, onRow func(trials.Result) error) (*Done, error) {
	for {
		var rep Reply
		if err := fr.recv(&rep); err != nil {
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

// Job is an attempt's one coordinator→worker header, its bulk fields
// following as data frames: exactly one of Trial,
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

// Reply is one worker→coordinator header: a streamed per-trial row or
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
