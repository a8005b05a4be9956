//go:build unix

package tape

// mmap_unix.go is the memory-mapped file backend: cells live in a
// shared mapping of an unlinked temp file, so every access is a plain
// memory operation and the kernel pages the bytes in and out behind
// the tape's back. Capacity grows by ftruncate + remap with doubling;
// the logical length n is tracked here (the mapping is the capacity,
// not the length). The invariant that makes Truncate/Grow match the
// in-memory backend: every mapped byte at index >= n is zero.

import (
	"os"
	"syscall"
)

// mmapMinCap is the smallest mapping; doublings from here reach 1 GiB
// in 14 remaps.
const mmapMinCap = 64 << 10

type mmapBackend struct {
	f      *os.File
	data   []byte // the mapping; len(data) is the capacity
	n      int    // logical cell count
	closed bool
}

func newMmapBackend(dir string) Backend {
	f, err := os.CreateTemp(dir, "st-tape-*.mmap")
	if err != nil {
		ioPanic("create", Mmap, err)
	}
	// Unlink immediately, like the file backend: the mapping and the
	// descriptor keep the inode alive, and nothing is left to clean up
	// however the process exits.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		ioPanic("unlink", Mmap, err)
	}
	return &mmapBackend{f: f}
}

func (b *mmapBackend) Kind() Storage                     { return Mmap }
func (b *mmapBackend) Len() int                          { return b.n }
func (b *mmapBackend) Cell(i int) byte                   { return cell(b, i) }
func (b *mmapBackend) SetCell(i int, c byte)             { setCell(b, i, c) }
func (b *mmapBackend) IndexByte(delim byte, off int) int { return indexByte(b, delim, off) }

// ensureCap grows the mapping to hold at least need cells.
func (b *mmapBackend) ensureCap(need int) {
	if need <= len(b.data) {
		return
	}
	newCap := len(b.data)
	if newCap < mmapMinCap {
		newCap = mmapMinCap
	}
	for newCap < need {
		newCap *= 2
	}
	if b.data != nil {
		if err := syscall.Munmap(b.data); err != nil {
			ioPanic("munmap", Mmap, err)
		}
		b.data = nil
	}
	// Extend the file first: touching mapped pages beyond the file's
	// end would SIGBUS. ftruncate extends with zeros (sparsely), which
	// keeps the ≥n-is-zero invariant for the fresh region.
	if err := b.f.Truncate(int64(newCap)); err != nil {
		ioPanic("truncate", Mmap, err)
	}
	data, err := syscall.Mmap(int(b.f.Fd()), 0, newCap,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		ioPanic("mmap", Mmap, err)
	}
	b.data = data
}

func (b *mmapBackend) ReadAt(dst []byte, off int)  { copy(dst, b.data[off:]) }
func (b *mmapBackend) WriteAt(src []byte, off int) { copy(b.data[off:], src) }

func (b *mmapBackend) Grow(n int) {
	b.ensureCap(n)
	b.n = n
}

func (b *mmapBackend) Truncate(n int) {
	// Zero the dropped range so a later Grow reads Blank.
	clear(b.data[n:b.n])
	b.n = n
}

func (b *mmapBackend) Reset() { b.Truncate(0) }

func (b *mmapBackend) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if b.data != nil {
		if err := syscall.Munmap(b.data); err != nil {
			b.f.Close()
			return err
		}
		b.data = nil
	}
	return b.f.Close()
}
