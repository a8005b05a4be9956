package faults

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/shard"
	"extmem/internal/tape"
)

// storageOps is the op budget of the storage-fault tests. An op is a
// call the tape makes into its backend: an input placement, a window
// fill or flush, a Truncate or a Contents. A shard attempt of the
// tests' sort makes 13, so a budget of 6 strikes mid-sort.
const storageOps = 6

func storageSort(o tape.Options) shard.Sort {
	return shard.Sort{
		Shards: 4, FanIn: 4, RunMemoryBits: 1024,
		Retry:    shard.RetryPolicy{MaxAttempts: 3},
		TapeOpts: o,
	}
}

// wrapExec is the Exec that runs every budgeted shard attempt
// in-process on tapes wrapped by the plan's storage-fault hook; the
// coordinator's fallback never consults Exec, so it never sees the
// wrapper.
func wrapExec(wrap func(sh, attempt int) tape.WrapBackend) shard.ExecFunc {
	return func(_ context.Context, sh, attempt int, job shard.SortJob) ([]byte, core.Resources, error) {
		job.Tape.Wrap = wrap(sh, attempt)
		return job.Execute()
	}
}

// TestStorageFaultRetryHeals proves a mid-sort storage failure takes
// the ordinary shard retry path: with a Flaky plan every shard's first
// attempt dies on a *tape.IOError panic erupting from its backend, the
// retries run clean, and the output is byte-identical to the
// fault-free run — with the failed attempts on the record.
func TestStorageFaultRetryHeals(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	enc := problems.GenMultisetYes(256, 16, rng).Encode()
	const seed = 77

	want, cleanRep, err := storageSort(tape.Options{}).Run(context.Background(), enc, seed)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		o    tape.Options
	}{
		{"mem", tape.Options{}},
		{"file", tape.Options{Storage: tape.File, SpillDir: t.TempDir()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := Plan{Mode: Panic, Rate: 1, Flaky: 1, Seed: 5}
			s := storageSort(c.o)
			s.Exec = wrapExec(p.TapeWrap(storageOps))
			out, rep, err := s.Run(context.Background(), enc, seed)
			if err != nil {
				t.Fatalf("sort under storage faults failed: %v", err)
			}
			if !bytes.Equal(out, want) {
				t.Fatal("output under storage faults diverges from the clean run")
			}
			if rep.Attempts != cleanRep.Attempts+s.Shards {
				t.Fatalf("Attempts = %d, want %d (clean %d + one failed attempt per shard)",
					rep.Attempts, cleanRep.Attempts+s.Shards, cleanRep.Attempts)
			}
			if rep.Fallbacks != 0 {
				t.Fatalf("Fallbacks = %d, want 0: flaky faults must heal within the retry budget", rep.Fallbacks)
			}
		})
	}
}

// TestStorageFaultFallsBackChaosFree proves a persistent storage fault
// — one shard's backend dying on every attempt — exhausts the retry
// budget and lands on the coordinator's fallback, which never sees the
// failing wrapper and still produces byte-identical output.
func TestStorageFaultFallsBackChaosFree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	enc := problems.GenMultisetYes(256, 16, rng).Encode()
	const seed = 78

	want, _, err := storageSort(tape.Options{}).Run(context.Background(), enc, seed)
	if err != nil {
		t.Fatal(err)
	}

	p := Plan{Mode: Panic, Sites: []int{1}} // shard 1's storage is gone for good
	s := storageSort(tape.Options{Storage: tape.File, SpillDir: t.TempDir()})
	s.Exec = wrapExec(p.TapeWrap(storageOps))
	out, rep, err := s.Run(context.Background(), enc, seed)
	if err != nil {
		t.Fatalf("sort with a dead shard store failed: %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("fallback output diverges from the clean run")
	}
	if rep.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1: shard 1 must be re-run by the coordinator", rep.Fallbacks)
	}
}

// TestStorageFaultTypedChain pins the error type a planted fault
// delivers: the panic value is a *tape.IOError that errors.Is
// ErrStorage and unwraps to the plan's *Injected, and a recovered
// shard attempt (*shard.PanicError) keeps that whole chain
// reachable for triage. The write stays in the tape's window;
// Contents flushes it, the first op that reaches the backend.
func TestStorageFaultTypedChain(t *testing.T) {
	wrap := Plan{Mode: Panic, Sites: []int{0}}.TapeWrap(0)(0, 1)
	tp := tape.NewWith("t", tape.Options{Wrap: wrap})
	defer tp.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("exhausted backend did not panic")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %v is not an error", r)
		}
		if !errors.Is(err, tape.ErrStorage) {
			t.Fatalf("panic error %v is not ErrStorage", err)
		}
		var inj *Injected
		if !errors.As(err, &inj) || inj.Site != 0 {
			t.Fatalf("panic error %v does not unwrap to the Injected fault", err)
		}
		spe := &shard.PanicError{Shard: 0, Value: r}
		if !errors.Is(spe, tape.ErrStorage) {
			t.Fatal("PanicError hides the storage error from errors.Is")
		}
	}()
	if err := tp.WriteBlock([]byte("boom")); err != nil {
		t.Fatal(err)
	}
	_ = tp.Contents()
}
