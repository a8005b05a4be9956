package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"extmem/internal/core"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/tape"
	"extmem/internal/trials"
)

// Stream shapes a reader faces, selected by the first byte of a fuzz
// input: whether a Hello opens the stream (TCP) or not (pipes), and
// whether the stream carries a job (worker side) or replies
// (coordinator side).
const (
	fuzzHello = 1 << iota
	fuzzJob
)

// stream encodes vs as one direction's frames, exactly as send writes
// them.
func stream(t testing.TB, vs ...any) []byte {
	t.Helper()
	var b bytes.Buffer
	fw := newFrameWriter(&b)
	for _, v := range vs {
		if err := fw.send(v); err != nil {
			t.Fatalf("encoding %T: %v", v, err)
		}
	}
	return b.Bytes()
}

// thisHello is this build's handshake.
func thisHello() *Hello {
	return &Hello{Version: ProtocolVersion, Fingerprint: trials.RegistryFingerprint()}
}

// FuzzTransportFrame feeds arbitrary bytes to the per-direction frame
// decoder: it must reject garbage with an error — header lengths past
// their cap, data lengths past MaxFrame, truncated frames, non-gob
// headers, trailing bytes after a header's value, bulk bytes inside a
// header — and never panic. The coordinator reads these frames from
// workers it does not trust to die cleanly, and a worker reads them
// from any peer that connects, so the decoder is a hard boundary.
func FuzzTransportFrame(f *testing.F) {
	job := stream(f, thisHello(), &Job{Sort: &shard.SortJob{Payload: []byte("01#10#"), FanIn: 2, Tapes: 4}})
	replies := stream(f, thisHello(),
		&Reply{Row: &trials.Result{Trial: 1, Accept: true}},
		&Reply{Row: &trials.Result{Trial: 2, Err: "boom"}},
		&Reply{Done: &Done{Machine: &MachineDone{Out: []byte("10#"), Resources: core.Resources{Reversals: 3}}}})
	f.Add(append([]byte{fuzzHello | fuzzJob}, job...))
	f.Add(append([]byte{fuzzHello}, replies...))
	f.Add(append([]byte{fuzzJob}, stream(f, &Job{
		Trial: &TrialJob{Workload: trials.Workload{Name: "w", Spec: []byte{1, 2}}, Trials: 4, Offset: 8},
		Fault: &WorkerFault{Exit: true, ExitAfter: 2, Kill: true},
	})...))
	f.Add(append([]byte{fuzzJob}, stream(f, &Job{
		Scan:  &relalg.ScanJob{Op: relalg.ScanOpDiff, Left: []byte("0#"), Right: nil},
		Fault: &WorkerFault{Stall: time.Second, Corrupt: true},
	})...))
	f.Add(append([]byte{0}, stream(f, &Reply{Done: &Done{Err: "worker panicked"}})...))
	f.Add([]byte{fuzzHello | fuzzJob})
	f.Add(append([]byte{fuzzHello | fuzzJob}, job[:len(job)-3]...))
	f.Add([]byte{fuzzHello, 0xff, 0xff, 0xff, 0xff, 'x'})
	// A valid header whose data frame declares more than MaxFrame.
	done := stream(f, &Reply{Done: &Done{Machine: &MachineDone{}}})
	f.Add(append(append([]byte{0}, done[:len(done)-4]...), 0x04, 0, 0, 1))
	// A header frame with a byte after its value.
	row := stream(f, &Reply{Row: &trials.Result{Trial: 7}})
	trailing := append(append([]byte{}, row...), 0)
	binary.BigEndian.PutUint32(trailing, uint32(len(row)-4+1))
	f.Add(append([]byte{0}, trailing...))
	// Serve-side streams of several jobs, small, large and small, the
	// reused buffer growing past a chunk and then holding fields of
	// two sizes.
	big := bytes.Repeat([]byte("0110#"), dataChunk/4)
	jobs := stream(f, thisHello(),
		&Job{Sort: &shard.SortJob{Payload: []byte("01#10#"), FanIn: 2, Tapes: 4}},
		&Job{Scan: &relalg.ScanJob{Op: relalg.ScanOpDiff, Left: big, Right: []byte("0110#")}},
		&Job{Scan: &relalg.ScanJob{Op: relalg.ScanOpProduct, Left: []byte("1#"), Right: []byte("0#1#")}},
		&Job{Trial: &TrialJob{Workload: trials.Workload{Name: "w", Spec: []byte{7}}, Trials: 2}},
		&Job{Sort: &shard.SortJob{Payload: big[:len(big)/3], FanIn: 3, Tapes: 5}})
	f.Add(append([]byte{fuzzHello | fuzzJob}, jobs...))
	f.Add(append([]byte{fuzzHello | fuzzJob}, jobs[:len(jobs)-40]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind, fr := data[0], newFrameReader(bufio.NewReader(bytes.NewReader(data[1:])))
		// The serve side reads jobs through its kept buffer: a reader
		// with a slice per field must decode the same values and
		// errors, frame after frame.
		var ref *frameReader
		if kind&(fuzzHello|fuzzJob) == fuzzHello|fuzzJob {
			fr.reuse = true
			ref = newFrameReader(bufio.NewReader(bytes.NewReader(data[1:])))
			if _, err := ref.hello(); err != nil {
				return
			}
		}
		if kind&fuzzHello != 0 {
			if _, err := fr.hello(); err != nil {
				return
			}
		}
		for i := 0; i < 8; i++ {
			var v any = &Reply{}
			if kind&fuzzJob != 0 {
				v = &Job{}
			}
			err := fr.recv(v)
			if ref != nil {
				var want Job
				werr := ref.recv(&want)
				if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && !reflect.DeepEqual(v, &want) {
					t.Fatalf("job %d through the kept buffer: %+v (%v), want %+v (%v)", i, v, err, &want, werr)
				}
				fr.trim()
			}
			if err != nil {
				return
			}
		}
	})
}

// Every length prefix past its cap is refused before any allocation:
// a Hello past maxHelloFrame, a header past maxHeaderFrame, a data
// frame past MaxFrame.
func TestReadFrameRejectsOversized(t *testing.T) {
	prefix := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	header := stream(t, &Reply{Done: &Done{Machine: &MachineDone{}}})
	cases := []struct {
		name string
		wire []byte
		read func(*frameReader) error
	}{
		{"hello", prefix(maxHelloFrame + 1), func(fr *frameReader) error { _, err := fr.hello(); return err }},
		{"header", prefix(maxHeaderFrame + 1), func(fr *frameReader) error { return fr.recv(&Reply{}) }},
		{"data", append(header[:len(header)-4:len(header)-4], prefix(MaxFrame+1)...),
			func(fr *frameReader) error { return fr.recv(&Reply{}) }},
	}
	for _, c := range cases {
		err := c.read(newFrameReader(bytes.NewReader(c.wire)))
		if err == nil || !strings.Contains(err.Error(), "exceeds the") {
			t.Errorf("%s: oversized frame gave %v, want a limit error", c.name, err)
		}
	}
}

// A header frame holds exactly one value and no bulk bytes: an empty
// frame, a byte after the value, a second value and a bulk field
// inside the header (even with its data frame after it) are each an
// error.
func TestHeaderFrameHoldsOneValue(t *testing.T) {
	frame := func(vs ...any) []byte {
		var b bytes.Buffer
		enc := gob.NewEncoder(&b)
		for _, v := range vs {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		return append(binary.BigEndian.AppendUint32(nil, uint32(b.Len())), b.Bytes()...)
	}
	row := Reply{Row: &trials.Result{Trial: 1}}
	trailing := append(frame(row), 0)
	binary.BigEndian.PutUint32(trailing, uint32(len(trailing)-4))
	for name, wire := range map[string][]byte{
		"empty":         {0, 0, 0, 0},
		"trailing byte": trailing,
		"two values":    frame(row, Reply{Row: &trials.Result{Trial: 2}}),
		"bulk inline":   append(frame(Reply{Done: &Done{Machine: &MachineDone{Out: []byte("01#")}}}), 0, 0, 0, 0),
	} {
		if err := newFrameReader(bytes.NewReader(wire)).recv(&Reply{}); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: header frame gave %v, want an error", name, err)
		}
	}
}

// send and recv round-trip every job and reply kind over one stream:
// trial, sort and scan jobs, each fault order, rows, a Done with an
// error and one with a machine result, and nil and empty byte fields,
// which decode as nil, as they do under gob. send leaves the caller's
// values as they were.
func TestFrameRoundTrip(t *testing.T) {
	opts := func() []any {
		return []any{
			thisHello(),
			&Job{Trial: &TrialJob{Workload: trials.Workload{Name: "fp", Spec: []byte{9, 8, 7}},
				Trials: 16, Offset: 32, Parallel: 2, Seed: -5}},
			&Job{Trial: &TrialJob{Workload: trials.Workload{Name: "empty-spec", Spec: []byte{}}}},
			&Job{Sort: &shard.SortJob{Payload: []byte("0110#1001#"), FanIn: 4, RunMemoryBits: 128, Tapes: 5, Seed: 3},
				Fault: &WorkerFault{Exit: true, ExitAfter: 3}},
			&Job{Sort: &shard.SortJob{FanIn: 2}, Fault: &WorkerFault{Exit: true, Kill: true}},
			&Job{Scan: &relalg.ScanJob{Op: relalg.ScanOpDiff, Left: []byte("01#"), Right: []byte("10#11#"), Seed: 1},
				Fault: &WorkerFault{Corrupt: true}},
			&Job{Scan: &relalg.ScanJob{Op: relalg.ScanOpProduct, Left: nil, Right: []byte{}},
				Fault: &WorkerFault{Stall: 250 * time.Millisecond}},
			&Reply{Row: &trials.Result{Trial: 4, Accept: true, Class: "yes", Value: 0.5}},
			&Reply{Row: &trials.Result{Err: "trial failed"}},
			&Reply{Done: &Done{Err: "panic: boom\n" + strings.Repeat("goroutine 1 [running]:\n", 64)}},
			&Reply{Done: &Done{Machine: &MachineDone{Out: []byte("1001#0110#"),
				Resources: core.Resources{Reversals: 7, PeakMemoryBits: 96, Tapes: 5, Steps: 40,
					PerTape: []tape.Stats{{Reversals: 7, Steps: 40}}}}}},
			&Reply{Done: &Done{Machine: &MachineDone{Out: []byte{}}}},
			&Reply{Done: &Done{}},
		}
	}
	in, before := opts(), opts()
	wire := stream(t, in...)
	if !reflect.DeepEqual(in, before) {
		t.Error("send changed the values it sent")
	}
	// What each value decodes to: empty byte fields arrive as nil.
	want := opts()
	want[2].(*Job).Trial.Workload.Spec = nil
	want[6].(*Job).Scan.Right = nil
	want[11].(*Reply).Done.Machine.Out = nil

	fr := newFrameReader(bytes.NewReader(wire))
	for i, w := range want {
		got := reflect.New(reflect.TypeOf(w).Elem()).Interface()
		if err := fr.recv(got); err != nil {
			t.Fatalf("value %d (%T): %v", i, w, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("value %d round-tripped to %+v, want %+v", i, got, w)
		}
	}
	if err := fr.recv(&Reply{}); !errors.Is(err, io.EOF) {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
}

// Values decoded back to back on one stream are independent: every
// bulk field is read into a slice of its own, and the decoder reuses
// only its header buffer, so a payload decoded from one frame survives
// the decoding of the next frames unchanged.
func TestDecodedFramesDoNotAlias(t *testing.T) {
	payload := bytes.Repeat([]byte("0110#"), 8192)
	out := bytes.Repeat([]byte("1001#"), 8192)
	wire := stream(t,
		&Job{Sort: &shard.SortJob{Payload: payload, FanIn: 4}},
		&Reply{Done: &Done{Machine: &MachineDone{Out: out}}},
		&Job{Sort: &shard.SortJob{Payload: bytes.Repeat([]byte{'x'}, len(payload)), FanIn: 2}},
		&Reply{Done: &Done{Machine: &MachineDone{Out: bytes.Repeat([]byte{'y'}, len(out))}}},
	)
	fr := newFrameReader(bytes.NewReader(wire))
	var job, job2 Job
	var rep, rep2 Reply
	for _, v := range []any{&job, &rep, &job2, &rep2} {
		if err := fr.recv(v); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(job.Sort.Payload, payload) {
		t.Error("the first SortJob.Payload changed when later frames were read")
	}
	if !bytes.Equal(rep.Done.Machine.Out, out) {
		t.Error("the first MachineDone.Out changed when later frames were read")
	}
	if job2.Sort.FanIn != 2 || !bytes.Equal(job2.Sort.Payload, bytes.Repeat([]byte{'x'}, len(payload))) ||
		!bytes.Equal(rep2.Done.Machine.Out, bytes.Repeat([]byte{'y'}, len(out))) {
		t.Error("the second pair of frames decoded wrong")
	}
}

// A data frame that declares MaxFrame and then ends costs about one
// chunk, not MaxFrame: the reader commits dataChunk bytes before any
// arrive and grows only as they do, with a slice per field and through
// the serve side's kept buffer alike.
func TestDataFrameAllocatesAsBytesArrive(t *testing.T) {
	header := stream(t, &Reply{Done: &Done{Machine: &MachineDone{}}})
	wire := append(header[:len(header)-4:len(header)-4], binary.BigEndian.AppendUint32(nil, MaxFrame)...)
	wire = append(wire, "ten bytes!"...)
	for _, reuse := range []bool{false, true} {
		fr := newFrameReader(bytes.NewReader(wire))
		fr.reuse = reuse
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fr.recv(&Reply{})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("reuse=%v: truncated data frame: %v, want io.ErrUnexpectedEOF", reuse, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > dataChunk+dataChunk/2 {
			t.Errorf("reuse=%v: reading a truncated %d-byte data frame allocated %d bytes, want about one %d-byte chunk",
				reuse, MaxFrame, n, dataChunk)
		}
	}
}

// A message count inside a header cannot reach past the header frame:
// a 10-byte header whose gob count declares 9.9 MB is refused before
// the decoder allocates the message.
func TestHeaderCountStaysInFrame(t *testing.T) {
	hdr := []byte{0xfc, 0x00, 0x97, 0x00, 0x00, 1, 2, 3, 4, 5}
	wire := append(binary.BigEndian.AppendUint32(nil, uint32(len(hdr))), hdr...)
	fr := newFrameReader(bytes.NewReader(wire))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fr.recv(&Reply{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header whose gob count overruns it decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("refusing a 10-byte header allocated %d bytes", n)
	}
}

// lockedBuffer is a log sink several serve handlers may write at once.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// A live worker drops a connection at once when, after a valid
// handshake, the job header declares more than maxHeaderFrame: it
// refuses the length before allocating and does not wait out the
// handshake timeout for bytes that never come.
func TestServeRefusesOversizedJobHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var log lockedBuffer
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		Serve(ctx, ln, &log)
	}()
	t.Cleanup(func() {
		cancel()
		<-served
	})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	wire := append(stream(t, thisHello()), binary.BigEndian.AppendUint32(nil, maxHeaderFrame+1)...)
	if _, err := conn.Write(wire); err != nil {
		t.Fatalf("sending handshake and header: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	fr := newFrameReader(bufio.NewReader(conn))
	if _, err := fr.hello(); err != nil {
		t.Fatalf("reading the worker's Hello: %v", err)
	}
	var ne net.Error
	err = fr.recv(&Reply{})
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("worker still held the connection 1 s after an oversized job header")
	}
	if err == nil {
		t.Fatal("worker answered an oversized job header")
	}
	if want := "stworker: reading job: transport: frame length 1048577 exceeds the 1048576-byte limit"; !strings.Contains(log.String(), want) {
		t.Errorf("worker log %q lacks %q", log.String(), want)
	}
}
