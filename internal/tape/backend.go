package tape

// backend.go defines the storage backend seam of the tape device: the
// Tape above it owns the whole cost model (reversals, steps, reads,
// writes, MaxCell, budgets) and the one 64 KiB window every read and
// write goes through, while a Backend merely holds the cells — in RAM
// pages or in a temp file. A backend sees one call per window fill or
// flush, never one per item. The contract, enforced by the
// backend-conformance suite in backend_test.go and FuzzTapeBackend, is
// that the backend may move the bytes' home, never a count: every tape
// operation must be observationally identical — contents, head, errors
// and every Stats counter — on every backend.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// Storage selects where a tape's cells live. The zero value is Mem.
type Storage string

// The storage backends. Mem keeps the cells in pooled in-RAM pages;
// File is pread/pwrite over an unlinked temp file.
const (
	Mem  Storage = "mem"
	File Storage = "file"
)

// ParseStorage validates a -storage flag value. The empty string is
// Mem (the zero Options default).
func ParseStorage(s string) (Storage, error) {
	switch Storage(s) {
	case "", Mem:
		return Mem, nil
	case File:
		return File, nil
	}
	return Mem, fmt.Errorf("tape: unknown storage %q (want mem or file)", s)
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

	// SpillDir is the directory File tapes create their temp files
	// in; "" means the system temp directory. Files are unlinked
	// immediately after creation, so no path ever needs cleanup — not
	// on Close, not on SIGINT, not on SIGKILL; the kernel reclaims the
	// space when the last descriptor dies with the process.
	SpillDir string

	// SpillThreshold, when > 0, keeps a File tape on the in-memory
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
		return fmt.Errorf("tape: SpillThreshold %d requires File storage (a Mem tape has nothing to spill to)", o.SpillThreshold)
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
// range lies within [0, Len()). The Tape fills its window with one
// ReadAt and flushes it with one Grow and one WriteAt; it calls
// neither Cell, SetCell nor IndexByte. Backends are not safe for
// concurrent use (neither is a Tape) and report I/O failures by
// panicking with an *IOError.
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

	// Close releases the backend's resources (file descriptors). The
	// backend is unusable afterwards; Close is idempotent.
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
	default:
		be = &memBackend{}
	}
	if o.Wrap != nil {
		be = o.Wrap(be)
	}
	return be
}

// cell, setCell and indexByte are every backend's Cell, SetCell and
// IndexByte, written once over its ReadAt, WriteAt and Len. The Tape
// calls none of them; they keep the Backend interface whole for
// wrappers that forward each method.
func cell(b Backend, i int) byte {
	var c [1]byte
	b.ReadAt(c[:], i)
	return c[0]
}

func setCell(b Backend, i int, c byte) { b.WriteAt([]byte{c}, i) }

func indexByte(b Backend, delim byte, off int) int {
	var buf [4 << 10]byte
	for off < b.Len() {
		chunk := buf[:min(len(buf), b.Len()-off)]
		b.ReadAt(chunk, off)
		if i := bytes.IndexByte(chunk, delim); i >= 0 {
			return off + i
		}
		off += len(chunk)
	}
	return -1
}

// winSize is the size of the tape window and of the mem backend's
// pages: one backend call fills or flushes up to this many cells.
const winSize = 64 << 10

// A page is one window's worth of cells.
type page = [winSize]byte

// pagePool holds zeroed pages for every tape in the process: the mem
// backend's cells and every Tape's window. Pages go back zeroed, so a
// page one tape frees reads Blank in the next tape that takes it.
var pagePool = sync.Pool{New: func() any { return new(page) }}

func getPage() *page { return pagePool.Get().(*page) }

// putPage blanks the first used cells of p (the rest are already
// Blank) and returns it to the pool.
func putPage(p *page, used int) {
	clear(p[:used])
	pagePool.Put(p)
}

// memBackend keeps its cells in fixed pages from pagePool. Growth never
// copies a cell, and Truncate, Reset and Close return every page they
// free, zeroed, for the next tape to reuse.
type memBackend struct {
	pages []*page
	n     int // logical cell count
}

func (b *memBackend) Kind() Storage                     { return Mem }
func (b *memBackend) Len() int                          { return b.n }
func (b *memBackend) Cell(i int) byte                   { return cell(b, i) }
func (b *memBackend) SetCell(i int, c byte)             { setCell(b, i, c) }
func (b *memBackend) IndexByte(delim byte, off int) int { return indexByte(b, delim, off) }

func (b *memBackend) ReadAt(dst []byte, off int) {
	for len(dst) > 0 {
		k := copy(dst, b.pages[off/winSize][off%winSize:])
		dst, off = dst[k:], off+k
	}
}

func (b *memBackend) WriteAt(src []byte, off int) {
	for len(src) > 0 {
		k := copy(b.pages[off/winSize][off%winSize:], src)
		src, off = src[k:], off+k
	}
}

// Grow takes pages from the pool until they hold n cells.
func (b *memBackend) Grow(n int) {
	for len(b.pages)*winSize < n {
		b.pages = append(b.pages, getPage())
	}
	b.n = n
}

// Truncate blanks cells [n, Len) and pools every page past the one
// holding cell n-1.
func (b *memBackend) Truncate(n int) {
	keep := (n + winSize - 1) / winSize
	if cut := n % winSize; cut != 0 {
		clear(b.pages[keep-1][cut:min(winSize, b.n-(keep-1)*winSize)])
	}
	for i := keep; i < len(b.pages); i++ {
		putPage(b.pages[i], max(min(winSize, b.n-i*winSize), 0))
		b.pages[i] = nil
	}
	b.pages = b.pages[:keep]
	b.n = n
}

func (b *memBackend) Reset()       { b.Truncate(0) }
func (b *memBackend) Close() error { b.Reset(); b.pages = nil; return nil }
