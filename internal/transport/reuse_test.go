package transport

// reuse_test.go holds the connection-reuse contract of the TCP
// transport: a connection carries attempt after attempt only after
// clean ones, a failed attempt never hands its connection on, a
// connection that died while idle costs no attempt, concurrent
// attempts never share one, and the serve side's kept receive buffer
// never lets one job's bytes into another's.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extmem/internal/relalg"
	"extmem/internal/shard"
)

// countingListener counts the connections Serve accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// countedWorker is one in-process serve worker whose accepts are
// counted and whose log is kept.
type countedWorker struct {
	addr string
	ln   *countingListener
	log  lockedBuffer
	stop func()
}

// startCounted serves on addr ("127.0.0.1:0" for any port) until the
// returned worker's stop, which test cleanup also calls.
func startCounted(t *testing.T, addr string) *countedWorker {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	w := &countedWorker{addr: ln.Addr().String(), ln: &countingListener{Listener: ln}}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		Serve(ctx, w.ln, &w.log)
	}()
	var once sync.Once
	w.stop = func() {
		once.Do(func() {
			cancel()
			<-served
		})
	}
	t.Cleanup(w.stop)
	return w
}

// sortItems builds n distinct-ish 12-bit items as a sort payload.
func sortItems(n, seed int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%012b#", (i*2654435761+seed)%4096)
	}
	return b.Bytes()
}

func sortJobOf(payload []byte) shard.SortJob {
	return shard.SortJob{Payload: payload, FanIn: 2, RunMemoryBits: 512, Tapes: 4, Seed: 5}
}

// sortAttempt runs one sort attempt and compares it with the job run
// in-process.
func sortAttempt(p *TCP, attempt int, job shard.SortJob) error {
	want, wantRes, err := job.Execute()
	if err != nil {
		return fmt.Errorf("in-process sort: %v", err)
	}
	got, res, err := p.Exec()(context.Background(), 0, attempt, job)
	if err != nil {
		return fmt.Errorf("attempt %d: %v", attempt, err)
	}
	if !bytes.Equal(got, want) || !reflect.DeepEqual(res, wantRes) {
		return fmt.Errorf("attempt %d: output or resources differ from the in-process run", attempt)
	}
	return nil
}

func checkSort(t *testing.T, p *TCP, attempt int, job shard.SortJob) {
	t.Helper()
	if err := sortAttempt(p, attempt, job); err != nil {
		t.Fatal(err)
	}
}

func (w *countedWorker) wantAccepts(t *testing.T, n int64, when string) {
	t.Helper()
	if got := w.ln.accepts.Load(); got != n {
		t.Fatalf("%s: %d connections accepted, want %d", when, got, n)
	}
}

// Sequential attempts to one worker share one connection and one
// handshake: the serve side shakes hands once per connection, so one
// accept is one handshake, and a second Hello on a connection would
// be logged as a malformed job.
func TestTCPReusesConnection(t *testing.T) {
	w := startCounted(t, "127.0.0.1:0")
	p := &TCP{Workers: []string{w.addr}}
	for a := 1; a <= 6; a++ {
		checkSort(t, p, a, sortJobOf(sortItems(40+a, a)))
	}
	w.wantAccepts(t, 1, "after 6 attempts")
	p.closeIdle()
	w.stop()
	if log := w.log.String(); log != "" {
		t.Errorf("worker log %q, want none", log)
	}
}

// A failed attempt on a reused connection closes it: the next attempt
// dials a new one. The census of a fault on a pooled connection is
// the one the same fault yields on a fresh one.
func TestTCPFailedAttemptDropsConnection(t *testing.T) {
	cases := []struct {
		name     string
		fault    *WorkerFault
		deadline time.Duration
		cancel   bool
	}{
		{"exit", &WorkerFault{Exit: true}, 0, false},
		{"corrupt", &WorkerFault{Corrupt: true}, 0, false},
		{"stall past the deadline", &WorkerFault{Stall: 5 * time.Second}, 200 * time.Millisecond, false},
		{"cancelled", &WorkerFault{Stall: 5 * time.Second}, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := startCounted(t, "127.0.0.1:0")
			faulty := 2
			p := &TCP{Workers: []string{w.addr}, Deadline: c.deadline,
				Fault: func(_, attempt int) *WorkerFault {
					if attempt == faulty {
						return c.fault
					}
					return nil
				}}
			t.Cleanup(p.closeIdle)
			job := sortJobOf(sortItems(50, 1))
			checkSort(t, p, 1, job)
			w.wantAccepts(t, 1, "after the first attempt")

			ctx, cancel := context.WithCancel(context.Background())
			if c.cancel {
				time.AfterFunc(100*time.Millisecond, cancel)
			}
			_, _, err := p.Exec()(ctx, 0, faulty, job)
			cancel()
			var werr *WorkerError
			switch {
			case c.cancel && !errors.Is(err, context.Canceled):
				t.Fatalf("cancelled attempt: %v, want context.Canceled", err)
			case !c.cancel && !errors.As(err, &werr):
				t.Fatalf("faulty attempt: %v, want a *WorkerError", err)
			}
			w.wantAccepts(t, 1, "after the failed attempt on the kept connection")

			checkSort(t, p, 3, job)
			w.wantAccepts(t, 2, "after the attempt that followed the failure")

			if c.cancel {
				return
			}
			// Shard 0's first attempt fails on the kept connection, its
			// retry succeeds: the census of TestTCPSortConnectionDeathRecovers.
			faulty = 1
			clean, _, err := shard.Sort{Shards: 1, FanIn: 2, RunMemoryBits: 512}.Run(context.Background(), job.Payload, 5)
			if err != nil {
				t.Fatalf("clean sort: %v", err)
			}
			out, rep, err := shard.Sort{Shards: 1, FanIn: 2, RunMemoryBits: 512,
				Retry: shard.RetryPolicy{MaxAttempts: 2}, Exec: p.Exec()}.Run(context.Background(), job.Payload, 5)
			if err != nil {
				t.Fatalf("sort: %v", err)
			}
			if !bytes.Equal(out, clean) {
				t.Error("recovered sort bytes differ from the clean run")
			}
			if rep.Attempts != 2 || rep.Fallbacks != 0 || rep.Recovered != 0 {
				t.Errorf("census (a=%d f=%d r=%d), want (2 0 0)", rep.Attempts, rep.Fallbacks, rep.Recovered)
			}
		})
	}
}

// A kept connection whose worker closed it while it sat idle — the
// worker restarted on the same address — is dropped before the next
// attempt uses it: the attempt costs nothing extra.
func TestTCPIdleConnectionClosedByWorker(t *testing.T) {
	w := startCounted(t, "127.0.0.1:0")
	p := &TCP{Workers: []string{w.addr}}
	t.Cleanup(p.closeIdle)
	job := sortJobOf(sortItems(60, 2))
	checkSort(t, p, 1, job)
	w.stop()
	again := startCounted(t, w.addr)
	out, rep, err := shard.Sort{Shards: 1, FanIn: 2, RunMemoryBits: 512,
		Retry: shard.RetryPolicy{MaxAttempts: 2}, Exec: p.Exec()}.Run(context.Background(), job.Payload, 5)
	if err != nil {
		t.Fatalf("sort: %v", err)
	}
	if want, _, _ := job.Execute(); !bytes.Equal(out, want) {
		t.Error("sort bytes differ from the in-process run")
	}
	if rep.Attempts != 1 || rep.Fallbacks != 0 {
		t.Errorf("census (a=%d f=%d), want (1 0): the dead idle connection cost an attempt", rep.Attempts, rep.Fallbacks)
	}
	again.wantAccepts(t, 1, "after the restart")
}

// Concurrent attempts to one worker never share a connection: each
// overlapping attempt gets one of its own, the outputs stay right, and
// the next round of as many attempts reuses those connections
// without dialing more.
func TestTCPConcurrentAttemptsDoNotShare(t *testing.T) {
	const k = 4
	w := startCounted(t, "127.0.0.1:0")
	// Each job stalls before it runs, so the k attempts overlap.
	p := &TCP{Workers: []string{w.addr}, Fault: func(int, int) *WorkerFault {
		return &WorkerFault{Stall: 100 * time.Millisecond}
	}}
	t.Cleanup(p.closeIdle)
	for round := 1; round <= 2; round++ {
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := sortAttempt(p, 1, sortJobOf(sortItems(30+i, i))); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		w.wantAccepts(t, k, fmt.Sprintf("after round %d", round))
	}
}

// One connection carries small, large and small jobs back to back
// through one kept receive buffer — scans of growing and shrinking
// size, each after a small sort: every output is the in-process one,
// so no job reads bytes of another.
func TestServeReceiveBufferAcrossJobs(t *testing.T) {
	w := startCounted(t, "127.0.0.1:0")
	p := &TCP{Workers: []string{w.addr}}
	t.Cleanup(p.closeIdle)
	attempt := 0
	for _, n := range []int{40, 3 * dataChunk / 2 / 13, 40, maxKeptData / 13, 50} {
		attempt++
		checkSort(t, p, attempt, sortJobOf(sortItems(40+n%7, n)))
		attempt++
		job := relalg.ScanJob{Op: relalg.ScanOpDiff, Left: sortItems(n, 1), Right: sortItems(n/2+1, 2), Seed: 3}
		want, wantRes, err := job.Execute()
		if err != nil {
			t.Fatalf("in-process scan: %v", err)
		}
		got, res, err := p.ExecScan()(context.Background(), 0, attempt, job)
		if err != nil {
			t.Fatalf("scan of %d items: %v", n, err)
		}
		if !bytes.Equal(got, want) || !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("scan of %d items: output or resources differ from the in-process run", n)
		}
	}
	w.wantAccepts(t, 1, "after every job")
}

// The kept buffer outlives jobs only up to maxKeptData, and once it
// has the room, one job's bulk fields share it.
func TestReusingReaderKeepsBoundedBuffer(t *testing.T) {
	small := &Job{Scan: &relalg.ScanJob{Op: relalg.ScanOpDiff, Left: []byte("01#"), Right: []byte("10#")}}
	big := &Job{Sort: &shard.SortJob{Payload: bytes.Repeat([]byte{'1'}, maxKeptData+1)}}
	fr := newFrameReader(bytes.NewReader(stream(t, small, small, big, small)))
	fr.reuse = true
	recv := func() *Job {
		t.Helper()
		var j Job
		if err := fr.recv(&j); err != nil {
			t.Fatal(err)
		}
		fr.trim()
		return &j
	}
	recv()
	if fr.data == nil {
		t.Fatal("trim dropped a small buffer")
	}
	if j := recv(); len(fr.data) != 6 || &j.Scan.Left[0] != &fr.data[0] || &j.Scan.Right[0] != &fr.data[3] {
		t.Error("a job's bulk fields do not share the kept buffer")
	}
	recv()
	if fr.data != nil {
		t.Errorf("trim kept a %d-byte buffer past the %d-byte bound", cap(fr.data), maxKeptData)
	}
	if j := recv(); string(j.Scan.Left) != "01#" || string(j.Scan.Right) != "10#" {
		t.Errorf("after the large job the small one decoded as %q/%q", j.Scan.Left, j.Scan.Right)
	}
}
