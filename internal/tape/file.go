package tape

// file.go is the sequential file backend: cells live in an unlinked
// temp file, and every call is one pread or pwrite at the offset it
// names. The Tape's 64 KiB window turns the tape's (overwhelmingly
// sequential) cell traffic into window-sized calls, so the backend
// needs no buffer of its own. The accounting model sees none of this —
// the Tape charges the same reversals/steps/reads/writes it would on
// the in-memory backend; only where the bytes sleep changes.

import (
	"io"
	"os"
)

// fileBackend stores cells in an unlinked temp file. The file is
// removed from the directory the moment it is created: the descriptor
// keeps it alive, and the kernel reclaims the space when the process
// dies — however it dies — so spill hygiene needs no cleanup path for
// SIGINT or SIGKILL.
type fileBackend struct {
	f      *os.File
	n      int // logical cell count; the file may be shorter (sparse reads are Blank)
	closed bool
}

// newFileBackend creates the backing file in dir ("" = system temp
// dir) and unlinks it immediately.
func newFileBackend(dir string) *fileBackend {
	f, err := os.CreateTemp(dir, "st-tape-*.spill")
	if err != nil {
		ioPanic("create", File, err)
	}
	// Unlink now: no file ever outlives the descriptor, so teardown —
	// graceful or not — leaves the spill directory empty.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		ioPanic("unlink", File, err)
	}
	return &fileBackend{f: f}
}

func (b *fileBackend) Kind() Storage                     { return File }
func (b *fileBackend) Len() int                          { return b.n }
func (b *fileBackend) Cell(i int) byte                   { return cell(b, i) }
func (b *fileBackend) SetCell(i int, c byte)             { setCell(b, i, c) }
func (b *fileBackend) IndexByte(delim byte, off int) int { return indexByte(b, delim, off) }

// ReadAt fills dst from the file at cell offset off, reading Blank
// past the end of the file (Grow is sparse: it extends the logical
// length without writing zeros).
func (b *fileBackend) ReadAt(dst []byte, off int) {
	n, err := b.f.ReadAt(dst, int64(off))
	if err != nil && err != io.EOF {
		ioPanic("pread", File, err)
	}
	clear(dst[n:])
}

func (b *fileBackend) WriteAt(src []byte, off int) {
	if _, err := b.f.WriteAt(src, int64(off)); err != nil {
		ioPanic("pwrite", File, err)
	}
}

// Grow is sparse: it only raises the logical length. Reads of never-
// written cells fall past the file end and come back Blank, exactly
// like the in-memory backend's zeroed pages.
func (b *fileBackend) Grow(n int) { b.n = n }

// Truncate cuts the file so a future Grow over the same range reads
// Blank again.
func (b *fileBackend) Truncate(n int) {
	if err := b.f.Truncate(int64(n)); err != nil {
		ioPanic("truncate", File, err)
	}
	b.n = n
}

func (b *fileBackend) Reset() { b.Truncate(0) }

func (b *fileBackend) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	return b.f.Close()
}
