package faults

// storage.go extends the chaos plan below the tape layer: instead of
// striking a whole shard attempt on the coordinator (ShardInject),
// TapeWrap plants a failing storage backend inside the shard's own
// machine, so the fault erupts mid-sort from whatever backend
// operation happens to be the AfterOps'th — a model of a disk or
// mapping going bad under an out-of-core run. An operation is one call
// the tape makes into its backend, and the tape makes one per 64 KiB
// window fill (a ReadAt) or flush (a Grow and a WriteAt), not one per
// item; input placement, Contents, Truncate and Reset make one or two
// more. The failure is a panic carrying a *tape.IOError (errors.Is
// ErrStorage) wrapping an *Injected, which shard.RunStage's recovery
// converts to a *shard.PanicError and retries; the coordinator
// fallback never sees the wrapper, so the output bytes are identical
// regardless.

import (
	"sync/atomic"

	"extmem/internal/tape"
)

// failingBackend counts backend operations across every tape of one
// shard attempt (the counter is shared by all tapes the attempt's
// machine creates) and panics with a *tape.IOError once the budget is
// spent. Subsequent operations fail too — a dead disk stays dead for
// the remainder of the attempt. The tape never calls Cell, SetCell or
// IndexByte, so they pass through uncounted.
type failingBackend struct {
	tape.Backend
	ops *atomic.Int64 // remaining healthy operations, shared per attempt
	err error         // the *Injected delivered inside the IOError
}

// strike burns one operation from the shared budget and erupts when it
// runs out.
func (b *failingBackend) strike(op string) {
	if b.ops.Add(-1) < 0 {
		panic(&tape.IOError{Op: op, Backend: b.Backend.Kind(), Err: b.err})
	}
}

func (b *failingBackend) ReadAt(dst []byte, off int) {
	b.strike("read")
	b.Backend.ReadAt(dst, off)
}

func (b *failingBackend) WriteAt(src []byte, off int) {
	b.strike("write")
	b.Backend.WriteAt(src, off)
}

func (b *failingBackend) Grow(n int) {
	b.strike("grow")
	b.Backend.Grow(n)
}

func (b *failingBackend) Truncate(n int) {
	b.strike("truncate")
	b.Backend.Truncate(n)
}

func (b *failingBackend) Reset() {
	b.strike("reset")
	b.Backend.Reset()
}

// TapeWrap derives a storage-fault hook from the plan: on a struck
// shard's injectable attempts (honoring Flaky), every tape of the
// attempt's machine gets a backend that fails — panics with a
// *tape.IOError wrapping an *Injected — once the attempt has performed
// afterOps backend operations in total. A shard.Sort installs it
// through Exec, which runs budgeted attempts only: set job.Tape.Wrap
// to the hook's wrapper, then job.Execute(). Shard selection is the
// same as ShardInject (Sites hold shard indices, Rate hashes the
// index), so the two hooks compose with the rest of the plan's
// schedule. A disabled plan returns nil, the no-fault hook.
func (p Plan) TapeWrap(afterOps int) func(sh, attempt int) tape.WrapBackend {
	if !p.Enabled() {
		return nil
	}
	return func(sh, attempt int) tape.WrapBackend {
		if !p.targets(sh) {
			return nil
		}
		if p.Flaky > 0 && attempt > p.Flaky {
			return nil
		}
		var ops atomic.Int64
		ops.Store(int64(afterOps))
		inj := &Injected{Site: sh, Attempt: attempt, Mode: Panic}
		return func(be tape.Backend) tape.Backend {
			return &failingBackend{Backend: be, ops: &ops, err: inj}
		}
	}
}
