package tape

// backend.go defines the storage backend seam of the tape device: the
// Tape above it owns the whole cost model (reversals, steps, reads,
// writes, MaxCell, budgets), while a Backend merely holds the cells —
// in RAM, in a buffered temp file, or in a memory mapping. The
// contract, enforced by the backend-conformance differential suite in
// backend_test.go and FuzzTapeBackend, is that the backend may move
// the bytes' home, never a count: every tape operation must be
// observationally identical — contents, head, errors and every Stats
// counter — on every backend.

import (
	"bytes"
	"errors"
	"fmt"
)

// Storage selects where a tape's cells live. The zero value is Mem.
type Storage string

// The storage backends. Mem is the historical in-RAM byte slice; File
// is buffered sequential I/O over an unlinked temp file; Mmap is a
// memory mapping of an unlinked temp file (falling back to File on
// platforms without mmap support).
const (
	Mem  Storage = "mem"
	File Storage = "file"
	Mmap Storage = "mmap"
)

// ParseStorage validates a -storage flag value. The empty string is
// Mem (the zero Options default).
func ParseStorage(s string) (Storage, error) {
	switch Storage(s) {
	case "", Mem:
		return Mem, nil
	case File:
		return File, nil
	case Mmap:
		return Mmap, nil
	}
	return Mem, fmt.Errorf("tape: unknown storage %q (want mem, file or mmap)", s)
}

// WrapBackend wraps a freshly constructed backend — the fault-injection
// seam: internal/faults builds wrappers whose storage operations panic
// with an *IOError after a seed-derived op count, so storage failure
// becomes one more injectable execution shape. A WrapBackend travels
// only in-process: it is a func field, which encoding/gob ignores, so
// it never crosses the worker transport.
type WrapBackend func(Backend) Backend

// Options selects a tape's storage backend. The zero value is the
// historical in-memory tape. All value fields gob-encode, so the
// options ride inside shard.SortJob to worker processes; Wrap does not
// (gob ignores func fields) and applies only where it was set.
type Options struct {
	// Storage is the backend kind; "" means Mem.
	Storage Storage

	// SpillDir is the directory File/Mmap tapes create their temp
	// files in; "" means the system temp directory. Files are unlinked
	// immediately after creation, so no path ever needs cleanup — not
	// on Close, not on SIGINT, not on SIGKILL; the kernel reclaims the
	// space when the last descriptor dies with the process.
	SpillDir string

	// SpillThreshold, when > 0, keeps a File/Mmap tape on the in-memory
	// backend until its materialized size first exceeds this many
	// cells, then migrates the content to the storage backend — small
	// scratch tapes never touch the disk. 0 places the tape on the
	// storage backend from the start. Setting it with Mem storage is a
	// Validate error (there is nothing to spill to), and NewWith panics
	// on it rather than silently ignoring the threshold.
	SpillThreshold int

	// Wrap, when non-nil, wraps every backend this tape constructs
	// (including the post-spill one) — the test seam for injected
	// storage faults. Never encoded (func field).
	Wrap WrapBackend
}

// storage is the resolved backend kind.
func (o Options) storage() Storage {
	if o.Storage == "" {
		return Mem
	}
	return o.Storage
}

// Validate rejects option combinations that would otherwise lie
// silently. A SpillThreshold on Mem storage is the one such combination
// today: a Mem tape has no storage backend to spill to, so the
// threshold would be dead configuration the caller believes is active.
// The CLIs call Validate on flag-built options (exit 2); NewWith
// panics on a violation, since by then it is a programming error.
func (o Options) Validate() error {
	if o.SpillThreshold < 0 {
		return fmt.Errorf("tape: negative SpillThreshold %d", o.SpillThreshold)
	}
	if o.storage() == Mem && o.SpillThreshold > 0 {
		return fmt.Errorf("tape: SpillThreshold %d requires File or Mmap storage (a Mem tape has nothing to spill to)", o.SpillThreshold)
	}
	return nil
}

// ErrStorage is the sentinel every backend I/O failure wraps:
// errors.Is(err, tape.ErrStorage) identifies a storage fault wherever
// it surfaces — typically inside a *shard.PanicError after the
// recovery layer caught the backend's panic.
var ErrStorage = errors.New("tape: storage I/O failure")

// IOError is a storage backend failure. Backends deliver it by
// panicking (the single-cell tape API has no error returns), and the
// recovery layers above — shard.RunStage's attempt recover, the trial
// engine's worker recover — convert the panic into their typed errors,
// so a mid-sort disk fault lands on the same retry → coordinator-
// fallback path as a dead worker process. Is(ErrStorage) is true and
// Unwrap exposes the underlying OS error.
type IOError struct {
	Op      string  // the failing operation, e.g. "pread"
	Backend Storage // which backend failed
	Err     error   // the underlying error
}

func (e *IOError) Error() string {
	return fmt.Sprintf("tape: %s storage %s failed: %v", e.Backend, e.Op, e.Err)
}

// Unwrap exposes the underlying OS error.
func (e *IOError) Unwrap() error { return e.Err }

// Is marks every IOError as an ErrStorage.
func (e *IOError) Is(target error) bool { return target == ErrStorage }

// ioPanic delivers a backend failure to the recovery layer above.
func ioPanic(op string, kind Storage, err error) {
	panic(&IOError{Op: op, Backend: kind, Err: err})
}

// A Backend stores a tape's cells. Offsets and lengths are cells
// (bytes); the Tape above guarantees every ReadAt/WriteAt/Cell/SetCell
// range lies within [0, Len()). Backends are not safe for concurrent
// use (neither is a Tape) and report I/O failures by panicking with an
// *IOError.
type Backend interface {
	// Kind identifies the backend for diagnostics.
	Kind() Storage

	// Len is the number of materialized cells.
	Len() int

	// Cell returns cell i.
	Cell(i int) byte

	// SetCell overwrites cell i.
	SetCell(i int, b byte)

	// ReadAt copies cells [off, off+len(dst)) into dst.
	ReadAt(dst []byte, off int)

	// WriteAt overwrites cells [off, off+len(src)) with src.
	WriteAt(src []byte, off int)

	// IndexByte returns the smallest i >= off with Cell(i) == delim,
	// or -1 if no such cell exists.
	IndexByte(delim byte, off int) int

	// Grow materializes blank cells so that Len() becomes n (never
	// called with n <= Len()).
	Grow(n int)

	// Truncate discards the cells at index >= n (never called with
	// n >= Len()). A later Grow over the same range reads Blank again.
	Truncate(n int)

	// Reset discards every cell and releases spill space; the backend
	// stays usable.
	Reset()

	// Close releases the backend's resources (file descriptors,
	// mappings). The backend is unusable afterwards; Close is
	// idempotent.
	Close() error
}

// NewBackend constructs the backend the options select (ignoring
// SpillThreshold — the spill dance is the Tape's job) with Wrap
// applied. It is exported for the conformance and fault-injection
// tests; normal code reaches backends only through New/FromBytes and
// Options.
func NewBackend(o Options) Backend {
	var be Backend
	switch o.storage() {
	case File:
		be = newFileBackend(o.SpillDir)
	case Mmap:
		be = newMmapBackend(o.SpillDir)
	default:
		be = &memBackend{}
	}
	if o.Wrap != nil {
		be = o.Wrap(be)
	}
	return be
}

// memBackend is the historical in-RAM cell array.
type memBackend struct {
	cells []byte
}

func (b *memBackend) Kind() Storage               { return Mem }
func (b *memBackend) Len() int                    { return len(b.cells) }
func (b *memBackend) Cell(i int) byte             { return b.cells[i] }
func (b *memBackend) SetCell(i int, c byte)       { b.cells[i] = c }
func (b *memBackend) ReadAt(dst []byte, off int)  { copy(dst, b.cells[off:]) }
func (b *memBackend) WriteAt(src []byte, off int) { copy(b.cells[off:], src) }

func (b *memBackend) IndexByte(delim byte, off int) int {
	if i := bytes.IndexByte(b.cells[off:], delim); i >= 0 {
		return off + i
	}
	return -1
}

func (b *memBackend) Grow(n int) {
	// The append writes zeros over any stale capacity, so re-grown
	// cells read Blank — the contract Truncate relies on.
	b.cells = append(b.cells, make([]byte, n-len(b.cells))...)
}

func (b *memBackend) Truncate(n int) { b.cells = b.cells[:n] }
func (b *memBackend) Reset()         { b.cells = b.cells[:0] }
func (b *memBackend) Close() error   { b.cells = nil; return nil }
