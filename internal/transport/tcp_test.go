package transport_test

// tcp_test.go is the network failure matrix: every way a TCP worker
// can die — refused dial, handshake mismatch, peer reset mid-frame, a
// stall past the attempt deadline, a real worker process SIGKILLed
// mid-job — must land on the same retry → backoff → chaos-free-
// fallback path as pipe-worker death, reproduce the baseline bytes
// exactly, and move only the attempt census. The happy-path tests pin
// tcp ≡ inproc for all three job kinds (trial fleets, shard sorts,
// operator scans) across shards × parallel.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/tape"
	"extmem/internal/transport"
	"extmem/internal/trials"
)

// localTCP starts n loopback serve workers for the test and returns
// the transport dialing them; the workers stop at test cleanup.
func localTCP(t *testing.T, n int) *transport.TCP {
	t.Helper()
	tr, stop, err := transport.LocalWorkers(n)
	if err != nil {
		t.Fatalf("LocalWorkers(%d): %v", n, err)
	}
	t.Cleanup(stop)
	return tr
}

// The TCP fleet must reproduce the in-process fleet exactly — rows,
// summary and the in-order OnResult stream — at every shard and
// worker count.
func TestTCPFleetMatchesInprocess(t *testing.T) {
	const n = 24
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	want, wantSum, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 42,
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("in-process fleet: %v", err)
	}
	tr := localTCP(t, 2)
	for _, shards := range []int{1, 2, 4} {
		for _, parallel := range []int{1, 4} {
			var stream []int
			got, sum, err := shard.Fleet{
				Plan:     shard.Plan{Shards: shards, Trials: n},
				Parallel: parallel,
				Seed:     42,
				OnResult: func(r trials.Result) { stream = append(stream, r.Trial) },
				Attempt:  tr.Attempt(),
			}.Run(ctx, fn)
			if err != nil {
				t.Fatalf("shards=%d parallel=%d: %v", shards, parallel, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d parallel=%d: rows differ from in-process fleet", shards, parallel)
			}
			if !reflect.DeepEqual(sum, wantSum) {
				t.Errorf("shards=%d parallel=%d: summary = %+v, want %+v", shards, parallel, sum, wantSum)
			}
			for i, trial := range stream {
				if trial != i {
					t.Fatalf("shards=%d parallel=%d: OnResult[%d] = trial %d, want %d",
						shards, parallel, i, trial, i)
				}
			}
		}
	}
}

// The TCP sort must reproduce the in-process sharded sort — the bytes
// AND the full report, per-shard (r, s, t) census included.
func TestTCPSortMatchesInprocess(t *testing.T) {
	enc := testInput()
	tr := localTCP(t, 2)
	for _, shards := range []int{1, 2, 4} {
		cfg := shard.Sort{Shards: shards, FanIn: 2, RunMemoryBits: 128}
		want, wantRep, err := cfg.Run(context.Background(), enc, 5)
		if err != nil {
			t.Fatalf("in-process sort: %v", err)
		}
		cfg.Exec = tr.Exec()
		got, rep, err := cfg.Run(context.Background(), enc, 5)
		if err != nil {
			t.Fatalf("shards=%d: tcp sort: %v", shards, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shards=%d: tcp sort bytes differ", shards)
		}
		if !reflect.DeepEqual(rep, wantRep) {
			t.Errorf("shards=%d: tcp report = %+v, want %+v", shards, rep, wantRep)
		}
	}
}

// A scan job shipped over TCP must return exactly what executing it
// in-process returns — bytes and resource census — for both ops.
func TestTCPScanMatchesDirect(t *testing.T) {
	tr := localTCP(t, 1)
	exec := tr.ExecScan()
	for _, op := range []string{relalg.ScanOpDiff, relalg.ScanOpProduct} {
		job := relalg.ScanJob{
			Op:    op,
			Left:  []byte("0001#0010#0100#"),
			Right: []byte("0010#"),
			Seed:  9,
		}
		want, wantRes, err := job.Execute()
		if err != nil {
			t.Fatalf("%s: direct execute: %v", op, err)
		}
		got, res, err := exec(context.Background(), 0, 1, job)
		if err != nil {
			t.Fatalf("%s: tcp scan: %v", op, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: tcp scan bytes %q, want %q", op, got, want)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("%s: tcp scan resources %v, want %v", op, res, wantRes)
		}
	}
}

// The sharded query evaluator with every sort and scan behind the TCP
// transport must reproduce the in-process sharded run — answer tuples
// and the whole QueryReport — and the scan seam must actually fire.
func TestTCPQueryEvaluatorMatchesInprocess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := problems.GenSetNo(128, 12, rng)
	db := relalg.InstanceDB(in)
	q := relalg.SymmetricDifference("R1", "R2")
	const runMem = 256

	eval := func(exec shard.ExecFunc, execScan relalg.ScanExecFunc) (*relalg.Relation, *relalg.QueryReport, error) {
		rep := &relalg.QueryReport{}
		m := core.NewMachineOpts(relalg.NumQueryTapes, 7, tape.Options{})
		defer m.Close()
		r, err := relalg.Evaluator{
			Shards: 2, RunMemoryBits: runMem, Seed: 7, Report: rep,
			Exec: exec, ExecScan: execScan,
		}.EvalST(context.Background(), q, db, m)
		return r, rep, err
	}
	want, wantRep, err := eval(nil, nil)
	if err != nil {
		t.Fatalf("in-process evaluation: %v", err)
	}
	tr := localTCP(t, 2)
	// Shard attempts run concurrently, so the seam counter is atomic.
	var scans atomic.Int64
	counting := func(ctx context.Context, sh, attempt int, job relalg.ScanJob) ([]byte, core.Resources, error) {
		scans.Add(1)
		return tr.ExecScan()(ctx, sh, attempt, job)
	}
	got, rep, err := eval(tr.Exec(), counting)
	if err != nil {
		t.Fatalf("tcp evaluation: %v", err)
	}
	if !reflect.DeepEqual(got.Tuples, want.Tuples) {
		t.Error("tcp-evaluated tuples differ from the in-process run")
	}
	if !reflect.DeepEqual(rep, wantRep) {
		t.Error("tcp-evaluated query census differs from the in-process run")
	}
	if scans.Load() == 0 {
		t.Error("the scan seam never fired: operator scans stayed in-process")
	}
}

// The connection failure matrix: dial refused, connection dropped
// mid-stream (once, and on every attempt), a stall past the attempt
// deadline. Every costume of network death lands on the retry →
// fallback path, reproduces the baseline rows byte for byte, and
// yields the exact deterministic census.
func TestTCPConnectionDeathRecovers(t *testing.T) {
	const n = 20
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	want, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 3,
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("baseline fleet: %v", err)
	}
	live := localTCP(t, 2)
	// A refused address: bind a port, then close the listener so every
	// dial to it is rejected.
	refusedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	refused := refusedLn.Addr().String()
	refusedLn.Close()

	cases := []struct {
		name                string
		workers             []string
		deadline            time.Duration
		fault               func(sh, attempt int) *transport.WorkerFault
		retries, falls, rec int
	}{
		// Shard 0's first attempt dials the dead address; the retry
		// moves one step around the ring to a live worker.
		{"dial refused once", []string{refused, live.Workers[0]}, 0, nil, 1, 0, 1},
		{"drop mid-stream once", live.Workers, 0, func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 && attempt == 1 {
				return &transport.WorkerFault{Exit: true, ExitAfter: 2}
			}
			return nil
		}, 1, 0, 1},
		{"drop always", live.Workers, 0, func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 {
				return &transport.WorkerFault{Exit: true, ExitAfter: 1}
			}
			return nil
		}, 1, 1, 2},
		{"stall past the deadline once", live.Workers, 300 * time.Millisecond,
			func(sh, attempt int) *transport.WorkerFault {
				if sh == 0 && attempt == 1 {
					return &transport.WorkerFault{Stall: 1500 * time.Millisecond}
				}
				return nil
			}, 1, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &transport.TCP{Workers: c.workers, Deadline: c.deadline, Fault: c.fault}
			got, sum, err := shard.Fleet{
				Plan: shard.Plan{Shards: 2, Trials: n}, Parallel: 1, Seed: 3,
				Retry:   shard.RetryPolicy{MaxAttempts: 2},
				Attempt: p.Attempt(),
			}.Run(ctx, fn)
			if err != nil {
				t.Fatalf("fleet: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("recovered rows differ from the baseline")
			}
			if sum.Retries != c.retries || sum.Fallbacks != c.falls || sum.Recovered != c.rec {
				t.Errorf("census (retries=%d falls=%d rec=%d), want (%d %d %d)",
					sum.Retries, sum.Fallbacks, sum.Recovered, c.retries, c.falls, c.rec)
			}
			if sum.Errors != 0 {
				t.Errorf("%d error rows, want 0", sum.Errors)
			}
		})
	}
}

// A stalled job ends with its connection, fresh or kept from an
// earlier attempt: the attempt still fails over at the coordinator's
// deadline, and the serve loop's stop returns at once instead of
// waiting out the stall of the job nobody reads.
func TestTCPStallEndsWithItsConnection(t *testing.T) {
	const n = 8
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	want, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 3,
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("baseline fleet: %v", err)
	}
	for _, reused := range []bool{false, true} {
		t.Run(fmt.Sprintf("reused=%v", reused), func(t *testing.T) {
			tr, stop, err := transport.LocalWorkers(1)
			if err != nil {
				t.Fatalf("LocalWorkers: %v", err)
			}
			fleet := shard.Fleet{
				Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 3,
				Retry:   shard.RetryPolicy{MaxAttempts: 2},
				Attempt: tr.Attempt(),
			}
			if reused {
				// A clean fleet leaves its connection idle for the next.
				if _, _, err := fleet.Run(ctx, fn); err != nil {
					t.Fatalf("warm-up fleet: %v", err)
				}
			}
			tr.Deadline = 100 * time.Millisecond
			tr.Fault = func(sh, attempt int) *transport.WorkerFault {
				if attempt == 1 {
					return &transport.WorkerFault{Stall: 10 * time.Second}
				}
				return nil
			}
			got, sum, err := fleet.Run(ctx, fn)
			start := time.Now()
			stop()
			if d := time.Since(start); d > time.Second {
				t.Errorf("stopping the workers took %v: the stalled job outlived its connection", d)
			}
			if err != nil {
				t.Fatalf("fleet: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("recovered rows differ from the baseline")
			}
			if sum.Retries != 1 || sum.Fallbacks != 0 || sum.Recovered != 1 {
				t.Errorf("census (retries=%d falls=%d rec=%d), want (1 0 1)", sum.Retries, sum.Fallbacks, sum.Recovered)
			}
		})
	}
}

// Sort-side connection death: retried, then absorbed by the
// coordinator; bytes and the successful attempts' reports never move,
// and a dead connection is an error, not a panic, so Recovered stays
// zero.
func TestTCPSortConnectionDeathRecovers(t *testing.T) {
	enc := testInput()
	clean, cleanRep, err := shard.Sort{Shards: 2, FanIn: 2, RunMemoryBits: 128}.
		Run(context.Background(), enc, 5)
	if err != nil {
		t.Fatalf("clean sort: %v", err)
	}
	live := localTCP(t, 2)
	cases := []struct {
		name        string
		fault       func(sh, attempt int) *transport.WorkerFault
		extra, fall int
	}{
		{"drop once", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 && attempt == 1 {
				return &transport.WorkerFault{Exit: true}
			}
			return nil
		}, 1, 0},
		{"drop always", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 {
				return &transport.WorkerFault{Exit: true}
			}
			return nil
		}, 2, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &transport.TCP{Workers: live.Workers, Fault: c.fault}
			out, rep, err := shard.Sort{
				Shards: 2, FanIn: 2, RunMemoryBits: 128,
				Retry: shard.RetryPolicy{MaxAttempts: 2},
				Exec:  p.Exec(),
			}.Run(context.Background(), enc, 5)
			if err != nil {
				t.Fatalf("sort: %v", err)
			}
			if !bytes.Equal(out, clean) {
				t.Error("recovered sort bytes differ from the clean run")
			}
			if !reflect.DeepEqual(rep.Shards, cleanRep.Shards) || !reflect.DeepEqual(rep.Merge, cleanRep.Merge) {
				t.Error("successful-attempt census differs from the clean run")
			}
			if rep.Attempts != 2+c.extra || rep.Fallbacks != c.fall || rep.Recovered != 0 {
				t.Errorf("census (a=%d f=%d r=%d), want (a=%d f=%d r=0)",
					rep.Attempts, rep.Fallbacks, rep.Recovered, 2+c.extra, c.fall)
			}
		})
	}
}

// frameBytes encodes v as a length-prefixed frame holding a fresh gob
// stream: the first frame of any stream, and every frame of a
// protocol 3 peer — for stub peers that speak just enough of the
// protocol to lie.
func frameBytes(t *testing.T, v any) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatalf("encoding stub frame: %v", err)
	}
	b := make([]byte, 4+payload.Len())
	binary.BigEndian.PutUint32(b, uint32(payload.Len()))
	copy(b[4:], payload.Bytes())
	return b
}

// stubServer runs handle on every accepted connection until cleanup.
func stubServer(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				handle(c)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// testSortJob is a minimal valid sort job for driving one attempt at
// a stub worker.
func testSortJob() shard.SortJob {
	return shard.SortJob{Payload: testInput(), FanIn: 2, RunMemoryBits: 128, Tapes: 4, Seed: 5}
}

// A peer speaking another protocol generation or carrying a different
// workload registry is rejected during the handshake with a typed
// *HandshakeError — wrapped in the retryable *WorkerError, never
// surfaced as gob garbage.
func TestTCPHandshakeMismatch(t *testing.T) {
	cases := []struct {
		name  string
		hello transport.Hello
		field string
	}{
		{"protocol version", transport.Hello{Version: transport.ProtocolVersion + 1,
			Fingerprint: trials.RegistryFingerprint()}, "protocol version"},
		{"workload registry", transport.Hello{Version: transport.ProtocolVersion,
			Fingerprint: trials.RegistryFingerprint() + 1}, "workload registry"},
		// A worker of an earlier build opens its reply stream with a
		// fresh-stream gob Hello, as every protocol 3 frame was; one of
		// protocol 4 serves a single job per connection.
		{"protocol 3 peer", transport.Hello{Version: 3,
			Fingerprint: trials.RegistryFingerprint()}, "protocol version"},
		{"protocol 4 peer", transport.Hello{Version: 4,
			Fingerprint: trials.RegistryFingerprint()}, "protocol version"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			hello := frameBytes(t, c.hello)
			addr := stubServer(t, func(conn net.Conn) {
				conn.Write(hello)
				// Linger briefly so the coordinator reads the frame
				// before the close can race it.
				time.Sleep(100 * time.Millisecond)
			})
			p := &transport.TCP{Workers: []string{addr}}
			_, _, err := p.Exec()(context.Background(), 0, 1, testSortJob())
			if err == nil {
				t.Fatal("mismatched handshake succeeded")
			}
			var herr *transport.HandshakeError
			if !errors.As(err, &herr) {
				t.Fatalf("error %v is not a *HandshakeError", err)
			}
			if herr.Field != c.field {
				t.Errorf("mismatch field %q, want %q", herr.Field, c.field)
			}
			var werr *transport.WorkerError
			if !errors.As(err, &werr) {
				t.Error("handshake failure is not wrapped in a *WorkerError")
			}
		})
	}
}

// A coordinator of the previous build, which sends every frame as a
// fresh gob stream, is refused by a live worker: the worker's Hello
// decodes as a protocol 3 frame would, carries this build's version,
// and the connection closes after it.
func TestServeRefusesProtocol3Peer(t *testing.T) {
	w := localTCP(t, 1)
	conn, err := net.Dial("tcp", w.Workers[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	hello := frameBytes(t, transport.Hello{Version: 3, Fingerprint: trials.RegistryFingerprint()})
	if _, err := conn.Write(hello); err != nil {
		t.Fatalf("sending handshake: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	var n [4]byte
	if _, err := io.ReadFull(br, n[:]); err != nil {
		t.Fatalf("reading the worker's Hello: %v", err)
	}
	var got transport.Hello
	if err := gob.NewDecoder(io.LimitReader(br, int64(binary.BigEndian.Uint32(n[:])))).Decode(&got); err != nil {
		t.Fatalf("decoding the worker's Hello as a fresh gob stream: %v", err)
	}
	if got.Version != transport.ProtocolVersion {
		t.Errorf("worker Hello version %d, want %d", got.Version, transport.ProtocolVersion)
	}
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Errorf("after its Hello the worker sent %d bytes (%v), want a closed connection", len(rest), err)
	}
}

// A fleet pointed at a mismatched build burns its budget and the
// coordinator absorbs every range itself: the rows still come out
// byte-identical.
func TestTCPHandshakeMismatchFallsBack(t *testing.T) {
	const n = 12
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	want, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 8,
	}.Run(context.Background(), fn)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	hello := frameBytes(t, transport.Hello{Version: transport.ProtocolVersion + 1})
	addr := stubServer(t, func(conn net.Conn) {
		conn.Write(hello)
		time.Sleep(100 * time.Millisecond)
	})
	p := &transport.TCP{Workers: []string{addr}}
	got, sum, err := shard.Fleet{
		Plan: shard.Plan{Shards: 2, Trials: n}, Parallel: 1, Seed: 8,
		Attempt: p.Attempt(),
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fallback rows differ from the baseline")
	}
	if sum.Fallbacks != 2 {
		t.Errorf("fallbacks = %d, want 2 (one per shard)", sum.Fallbacks)
	}
}

// A peer that sends only a Hello header declaring a 64 MiB body is
// refused on the spot: the worker checks the handshake cap before it
// allocates, and closes the connection instead of holding it open for
// the handshake timeout.
func TestServeRefusesOversizedHello(t *testing.T) {
	w := localTCP(t, 1)
	conn, err := net.Dial("tcp", w.Workers[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x04, 0, 0, 0}); err != nil {
		t.Fatalf("sending header: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	var b [1]byte
	_, err = conn.Read(b[:])
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("worker still held the connection 1 s after an oversized Hello header")
	}
	if err == nil {
		t.Fatal("worker answered an oversized Hello header")
	}
}

// A worker that answers the handshake with a Hello header past the
// 1 KiB cap and then holds the connection open fails the attempt at
// once with a *WorkerError — the coordinator refuses the header instead
// of waiting for a body that never comes — and a sort on that worker
// falls back to the coordinator with byte-identical output.
func TestTCPOversizedHelloReplyFallsBack(t *testing.T) {
	hold := make(chan struct{})
	addr := stubServer(t, func(conn net.Conn) {
		conn.Write([]byte{0, 0, 0x04, 0x01}) // 1025 bytes declared, none sent
		<-hold
	})
	t.Cleanup(func() { close(hold) })
	p := &transport.TCP{Workers: []string{addr}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	start := time.Now()
	_, _, err := p.Exec()(ctx, 0, 1, testSortJob())
	var werr *transport.WorkerError
	if !errors.As(err, &werr) {
		t.Fatalf("attempt error %v is not a *WorkerError", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("attempt took %v to fail on an oversized Hello", d)
	}

	s := shard.Sort{Shards: 2, FanIn: 2, RunMemoryBits: 128}
	want, _, err := s.Run(ctx, testInput(), 3)
	if err != nil {
		t.Fatalf("baseline sort: %v", err)
	}
	s.Exec = p.Exec()
	got, rep, err := s.Run(ctx, testInput(), 3)
	if err != nil {
		t.Fatalf("sort: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("fallback output differs from the in-process sort")
	}
	if rep.Fallbacks != 2 {
		t.Errorf("fallbacks = %d, want 2 (one per shard)", rep.Fallbacks)
	}
}

// A peer that resets the connection mid-frame — correct handshake,
// then a truncated reply — is one failed attempt: the retry moves to
// the live worker and the rows cannot move.
func TestTCPPeerResetMidFrame(t *testing.T) {
	const n = 16
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	want, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 6,
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("baseline fleet: %v", err)
	}
	hello := frameBytes(t, transport.Hello{Version: transport.ProtocolVersion,
		Fingerprint: trials.RegistryFingerprint()})
	resetter := stubServer(t, func(conn net.Conn) {
		conn.Write(hello)
		// A frame header promising 64 bytes, then 3 bytes and a close:
		// the reply stream dies mid-frame.
		conn.Write([]byte{0, 0, 0, 64, 1, 2, 3})
		time.Sleep(100 * time.Millisecond)
	})
	live := localTCP(t, 1)
	p := &transport.TCP{Workers: []string{resetter, live.Workers[0]}}
	got, sum, err := shard.Fleet{
		Plan: shard.Plan{Shards: 2, Trials: n}, Parallel: 1, Seed: 6,
		Retry:   shard.RetryPolicy{MaxAttempts: 2},
		Attempt: p.Attempt(),
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recovered rows differ from the baseline")
	}
	if sum.Retries != 1 || sum.Fallbacks != 0 || sum.Recovered != 1 || sum.Errors != 0 {
		t.Errorf("census (retries=%d falls=%d rec=%d errs=%d), want (1 0 1 0)",
			sum.Retries, sum.Fallbacks, sum.Recovered, sum.Errors)
	}
}

// A real worker process — this test binary re-executed in serve mode —
// SIGKILLed while a job is in flight: the coordinator sees the
// connection die, retries onto the live worker, and the rows cannot
// move. This is the one death no in-process serve loop can stage.
func TestTCPWorkerKilledMidStream(t *testing.T) {
	const n = 16
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), transport.EnvListen+"=127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker process: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	// The serve loop announces its resolved address on stderr.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "stworker: listening on "); ok {
				addrCh <- addr
				return
			}
		}
	}()
	var extAddr string
	select {
	case extAddr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("worker process never announced its address")
	}

	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	want, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 4,
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("baseline fleet: %v", err)
	}
	live := localTCP(t, 1)
	// Shard 0's first attempt lands on the external worker and stalls
	// there, holding the job in flight while the SIGKILL below takes
	// the whole process: connection death by process death.
	p := &transport.TCP{
		Workers: []string{extAddr, live.Workers[0]},
		Fault: func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 && attempt == 1 {
				return &transport.WorkerFault{Stall: 30 * time.Second}
			}
			return nil
		},
	}
	go func() {
		time.Sleep(300 * time.Millisecond)
		cmd.Process.Kill()
	}()
	got, sum, err := shard.Fleet{
		Plan: shard.Plan{Shards: 2, Trials: n}, Parallel: 1, Seed: 4,
		Retry:   shard.RetryPolicy{MaxAttempts: 2},
		Attempt: p.Attempt(),
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recovered rows differ from the baseline")
	}
	if sum.Retries != 1 || sum.Fallbacks != 0 || sum.Recovered != 1 || sum.Errors != 0 {
		t.Errorf("census (retries=%d falls=%d rec=%d errs=%d), want (1 0 1 0)",
			sum.Retries, sum.Fallbacks, sum.Recovered, sum.Errors)
	}
}

// Cancelling the fleet context mid-run surfaces the cancellation, not
// a retryable WorkerError — same contract as the pipe transport.
func TestTCPCancellation(t *testing.T) {
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx, cancel := context.WithCancel(trials.WithWorkload(context.Background(), w))
	cancel()
	tr := localTCP(t, 1)
	_, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 2, Trials: 8}, Parallel: 1, Seed: 3,
		Retry:   shard.RetryPolicy{MaxAttempts: 3},
		Attempt: tr.Attempt(),
	}.Run(ctx, fn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fleet error = %v, want context.Canceled", err)
	}
}

// An empty worker list cannot run anything remotely — every shard
// falls back to the coordinator and the rows still come out right.
func TestTCPNoWorkersFallsBack(t *testing.T) {
	const n = 8
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	want, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 12,
	}.Run(context.Background(), fn)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	got, sum, err := shard.Fleet{
		Plan: shard.Plan{Shards: 2, Trials: n}, Parallel: 1, Seed: 12,
		Attempt: (&transport.TCP{}).Attempt(),
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fallback rows differ from the baseline")
	}
	if sum.Fallbacks != 2 {
		t.Errorf("fallbacks = %d, want 2", sum.Fallbacks)
	}
}

// ParseWorkers is the CLIs' -workers validator: exact addresses pass,
// anything malformed is named in the error.
func TestParseWorkers(t *testing.T) {
	got, err := transport.ParseWorkers("127.0.0.1:9051,host.example:80")
	if err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	if !reflect.DeepEqual(got, []string{"127.0.0.1:9051", "host.example:80"}) {
		t.Errorf("parsed %v", got)
	}
	for _, bad := range []string{"", "127.0.0.1", "host:", ":9051", "a:1,,b:2"} {
		if _, err := transport.ParseWorkers(bad); err == nil {
			t.Errorf("ParseWorkers(%q) accepted", bad)
		}
	}
}

// Shutting the workers down must leave no serve goroutines and no
// connections behind — the leak check for the whole happy path plus a
// dropped connection.
func TestTCPNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	tr, stop, err := transport.LocalWorkers(2)
	if err != nil {
		t.Fatalf("LocalWorkers: %v", err)
	}
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	tr.Fault = func(sh, attempt int) *transport.WorkerFault {
		if sh == 0 && attempt == 1 {
			return &transport.WorkerFault{Exit: true, ExitAfter: 1}
		}
		return nil
	}
	if _, _, err := (shard.Fleet{
		Plan: shard.Plan{Shards: 2, Trials: 12}, Parallel: 1, Seed: 2,
		Retry:   shard.RetryPolicy{MaxAttempts: 2},
		Attempt: tr.Attempt(),
	}).Run(ctx, fn); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	stop()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after stop\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
