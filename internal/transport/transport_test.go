package transport_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"extmem/internal/algorithms"
	"extmem/internal/shard"
	"extmem/internal/transport"
	"extmem/internal/trials"
)

// TestMain routes re-executions of this test binary into the shard
// worker: the transport self-execs os.Executable(), which under
// `go test` is the test binary itself.
func TestMain(m *testing.M) {
	transport.MaybeWorker()
	os.Exit(m.Run())
}

// testInput builds a small deterministic multiset instance encoding.
func testInput() []byte {
	var b strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&b, "%08b#", (i*37)%256)
	}
	return []byte(b.String())
}

// The transport fleet must reproduce the in-process fleet exactly —
// rows, summary and the in-order OnResult stream — at every shard and
// worker count.
func TestProcFleetMatchesInprocess(t *testing.T) {
	const n = 24
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	want, wantSum, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 42,
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("in-process fleet: %v", err)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, parallel := range []int{1, 4} {
			var stream []int
			got, sum, err := shard.Fleet{
				Plan:     shard.Plan{Shards: shards, Trials: n},
				Parallel: parallel,
				Seed:     42,
				OnResult: func(r trials.Result) { stream = append(stream, r.Trial) },
				Attempt:  (&transport.Proc{}).Attempt(),
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
			if len(stream) != n {
				t.Errorf("shards=%d parallel=%d: streamed %d rows, want %d", shards, parallel, len(stream), n)
			}
		}
	}
}

// A fleet whose context carries no workload annotation must run
// in-process — transparently, without ever building a worker command.
func TestProcFleetFallsBackWithoutWorkload(t *testing.T) {
	const n = 12
	_, fn := algorithms.FingerprintValueWorkload(4, 10)
	want, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 7,
	}.Run(context.Background(), fn)
	if err != nil {
		t.Fatalf("in-process fleet: %v", err)
	}
	p := &transport.Proc{Command: func(context.Context) (*exec.Cmd, error) {
		t.Error("worker command built for an un-annotated fleet")
		return nil, errors.New("no workers here")
	}}
	got, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 2, Trials: n}, Parallel: 1, Seed: 7,
		Attempt: p.Attempt(),
	}.Run(context.Background(), fn)
	if err != nil {
		t.Fatalf("fallback fleet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fallback rows differ from the in-process fleet")
	}
}

// A launcher whose fleets attempt through the transport is the full
// launcher seam: the runner it builds must match trials.Pool row for
// row.
func TestLaunchMatchesPool(t *testing.T) {
	const n = 16
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	want, wantSum, err := trials.Pool(1)(n, 99, nil).Run(ctx, fn)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	got, sum, err := shard.LaunchRetry(2, 2, shard.RetryPolicy{}, (&transport.Proc{}).Attempt())(n, 99, nil).Run(ctx, fn)
	if err != nil {
		t.Fatalf("transport launch: %v", err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(sum, wantSum) {
		t.Error("transport launcher rows differ from trials.Pool")
	}
}

// The transport sort must reproduce the in-process sharded sort — the
// bytes AND the full report, per-shard (r, s, t) census included — at
// every shard count.
func TestProcSortMatchesInprocess(t *testing.T) {
	enc := testInput()
	for _, shards := range []int{1, 2, 4} {
		cfg := shard.Sort{Shards: shards, FanIn: 2, RunMemoryBits: 128}
		want, wantRep, err := cfg.Run(context.Background(), enc, 5)
		if err != nil {
			t.Fatalf("in-process sort: %v", err)
		}
		cfg.Exec = (&transport.Proc{}).Exec()
		got, rep, err := cfg.Run(context.Background(), enc, 5)
		if err != nil {
			t.Fatalf("shards=%d: transport sort: %v", shards, err)
		}
		if string(got) != string(want) {
			t.Errorf("shards=%d: transport sort bytes differ", shards)
		}
		if !reflect.DeepEqual(rep, wantRep) {
			t.Errorf("shards=%d: transport report = %+v, want %+v", shards, rep, wantRep)
		}
	}
}

// The failure matrix: every costume of worker death — exit(1)
// mid-stream, self-SIGKILL, a garbage frame, a stall past the deadline
// — must land on the retry → fallback path and reproduce the baseline
// rows byte for byte, with the exact deterministic recovery census.
func TestWorkerDeathRecovers(t *testing.T) {
	const n = 20
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx := trials.WithWorkload(context.Background(), w)
	want, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 3,
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("baseline fleet: %v", err)
	}
	cases := []struct {
		name                string
		deadline            time.Duration
		fault               func(sh, attempt int) *transport.WorkerFault
		retries, falls, rec int
	}{
		{"exit mid-stream once", 0, func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 && attempt == 1 {
				return &transport.WorkerFault{Exit: true, ExitAfter: 2}
			}
			return nil
		}, 1, 0, 1},
		{"sigkill mid-stream always", 0, func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 {
				return &transport.WorkerFault{Exit: true, ExitAfter: 1, Kill: true}
			}
			return nil
		}, 1, 1, 2},
		{"garbage frame once", 0, func(sh, attempt int) *transport.WorkerFault {
			if sh == 1 && attempt == 1 {
				return &transport.WorkerFault{Corrupt: true}
			}
			return nil
		}, 1, 0, 1},
		{"stall past the deadline once", 300 * time.Millisecond, func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 && attempt == 1 {
				return &transport.WorkerFault{Stall: 5 * time.Second}
			}
			return nil
		}, 1, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &transport.Proc{Deadline: c.deadline, Fault: c.fault}
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

// Sort-side worker death: retried, then absorbed by the coordinator;
// bytes and the successful attempts' reports never move. A dead worker
// is an error, not a panic, so Recovered stays zero.
func TestSortWorkerDeathRecovers(t *testing.T) {
	enc := testInput()
	clean, cleanRep, err := shard.Sort{Shards: 2, FanIn: 2, RunMemoryBits: 128}.
		Run(context.Background(), enc, 5)
	if err != nil {
		t.Fatalf("clean sort: %v", err)
	}
	cases := []struct {
		name        string
		fault       func(sh, attempt int) *transport.WorkerFault
		extra, fall int
	}{
		{"exit once", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 && attempt == 1 {
				return &transport.WorkerFault{Exit: true}
			}
			return nil
		}, 1, 0},
		{"sigkill always", func(sh, attempt int) *transport.WorkerFault {
			if sh == 0 {
				return &transport.WorkerFault{Exit: true, Kill: true}
			}
			return nil
		}, 2, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &transport.Proc{Fault: c.fault}
			out, rep, err := shard.Sort{
				Shards: 2, FanIn: 2, RunMemoryBits: 128,
				Retry: shard.RetryPolicy{MaxAttempts: 2},
				Exec:  p.Exec(),
			}.Run(context.Background(), enc, 5)
			if err != nil {
				t.Fatalf("sort: %v", err)
			}
			if string(out) != string(clean) {
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

// Cancelling the fleet context is not a shard fault: the dead workers
// must surface the cancellation, not a retryable WorkerError.
func TestProcCancellation(t *testing.T) {
	w, fn := algorithms.FingerprintValueWorkload(4, 10)
	ctx, cancel := context.WithCancel(trials.WithWorkload(context.Background(), w))
	cancel()
	_, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 2, Trials: 8}, Parallel: 1, Seed: 3,
		Retry:   shard.RetryPolicy{MaxAttempts: 3},
		Attempt: (&transport.Proc{}).Attempt(),
	}.Run(ctx, fn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fleet error = %v, want context.Canceled", err)
	}
}

// A workload name with no registered builder fails worker-side, burns
// the retry budget, and the degraded fallback still completes the range
// in-process — convergence even for a workload that cannot cross.
func TestUnknownWorkloadFallsBack(t *testing.T) {
	const n = 8
	_, fn := algorithms.FingerprintValueWorkload(4, 10)
	want, _, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 11,
	}.Run(context.Background(), fn)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ctx := trials.WithWorkload(context.Background(),
		trials.Workload{Name: "no-such-workload", Spec: []byte("x")})
	got, sum, err := shard.Fleet{
		Plan: shard.Plan{Shards: 1, Trials: n}, Parallel: 1, Seed: 11,
		Attempt: (&transport.Proc{}).Attempt(),
	}.Run(ctx, fn)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fallback rows differ from the baseline")
	}
	if sum.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", sum.Fallbacks)
	}
}

// A WorkerError unwraps to its cause and names the shard and attempt
// that failed.
func TestWorkerErrorIsShardFault(t *testing.T) {
	cause := errors.New("boom")
	werr := &transport.WorkerError{Shard: 3, Attempt: 2, Err: cause}
	if !errors.Is(werr, cause) {
		t.Error("WorkerError does not unwrap to its cause")
	}
	if !strings.Contains(werr.Error(), "shard 3") || !strings.Contains(werr.Error(), "attempt 2") {
		t.Errorf("WorkerError text %q lacks shard/attempt", werr.Error())
	}
}
