// Package algorithms implements the paper's upper-bound algorithms on
// the instrumented ST machine of internal/core:
//
//   - external tape merge sort with O(log N) head reversals
//     (Corollary 7 / Chen–Yap),
//   - the deterministic deciders for SET-EQUALITY, MULTISET-EQUALITY
//     and CHECK-SORT built on the sort,
//   - the randomized fingerprinting decider of Theorem 8(a) for
//     MULTISET-EQUALITY (2 scans, O(log N) internal memory, one-sided
//     error with false positives only),
//   - the nondeterministic certificate verifier of Theorem 8(b)
//     (3 scans, 2 work tapes), and
//   - the Las Vegas sorting wrapper of Corollary 10.
//
// Data on tapes follows the paper's input format: a sequence of
// '#'-terminated 0-1-strings. Internal-memory buffers and counters are
// charged to the machine's memory meter (one unit per buffered tape
// symbol, binary length for counters), so resource reports are exact.
// Every loop over items, here and in the shard and relalg layers,
// reads them through an ItemReader.
package algorithms

import (
	"bytes"
	"fmt"

	"extmem/internal/core"
	"extmem/internal/memory"
	"extmem/internal/problems"
	"extmem/internal/tape"
)

// An ItemReader is the one way to read '#'-terminated items from a
// tape, head moving forward. Each item Next returns is buffered in
// internal memory, charged to one meter region through a Register (no
// per-item map lookup), and handed out as a read-only view of the
// tape's window (tape.Tape.ScanUntil): an item that straddles two
// windows is copied into one buffer the reader reuses, so a loop over a
// stream copies and allocates almost nothing.
//
// The item Next returns, and the Record holding it, are valid until the
// next operation on the reader's tape, and must not be written to.
// Every caller reads one tape while it writes another, so an item
// stays valid while its bytes are compared or written elsewhere;
// anything kept across the next read (a dedup predecessor, a
// run-formation buffer) must be copied out first.
type ItemReader struct {
	tp     *tape.Tape
	mem    *memory.Meter
	region string
	reg    *memory.Register
	rec    []byte // the last item read, followed by its separator
	buf    []byte // holds an item that straddles two windows
}

// NewItemReader returns a reader of tp's items that charges each
// buffered item to the named region of mem.
func NewItemReader(tp *tape.Tape, mem *memory.Meter, region string) *ItemReader {
	return &ItemReader{tp: tp, mem: mem, region: region, reg: mem.Register(region)}
}

// Next reads the next item. It returns ok = false (and releases the
// region) when the tape is exhausted before any symbol is read.
//
// The item is consumed in one bulk sweep before the buffer is charged,
// so on a memory-budget refusal the tape counters cover the whole item
// rather than a prefix; such errors abort the run, so no resource
// report is produced.
func (r *ItemReader) Next() (item []byte, ok bool, err error) {
	if r.tp.AtEnd() {
		r.mem.Free(r.region)
		return nil, false, nil
	}
	if err := r.reg.Set(0); err != nil {
		return nil, false, err
	}
	rec, found, err := r.tp.ScanUntil(problems.Separator, &r.buf)
	if err != nil {
		return nil, false, err
	}
	if !found {
		return nil, false, fmt.Errorf("algorithms: item on tape %q not terminated by %q", r.tp.Name(), problems.Separator)
	}
	r.rec = rec
	item = rec[:len(rec)-1]
	// The buffer grew one symbol at a time; its peak is its final size.
	if err := r.reg.Set(int64(len(item))); err != nil {
		return nil, false, err
	}
	return item, true, nil
}

// Record returns the item the last successful Next returned, followed
// by its separator: WriteBlock(Record()) writes the item exactly as
// WriteItem does, counters and refused turns included, in one call.
// Like the item, it is valid until the next operation on the reader's
// tape.
func (r *ItemReader) Record() []byte { return r.rec }

// CopyItems copies up to count items to dst, which must be another
// tape, and returns the number copied (less than count if the tape ran
// out). A whole run moves in one tape.Tape.CopyDelimited call, straight
// from this tape's window into dst's; it charges nothing to the meter,
// since a copy moves each symbol from tape to tape with O(1) internal
// memory. Tape accounting is exactly that of one ScanUntil plus one
// WriteBlock per item, refused turns included. After CopyItems the
// last item Next returned is no longer valid.
func (r *ItemReader) CopyItems(dst *tape.Tape, count int) (int, error) {
	n, partial, err := r.tp.CopyDelimited(dst, problems.Separator, count)
	if err == nil && partial {
		err = fmt.Errorf("algorithms: unterminated item while copying from %q", r.tp.Name())
	}
	return n, err
}

// WriteItem writes item followed by the separator at the head of tp,
// moving forward.
func WriteItem(tp *tape.Tape, item []byte) error {
	if err := tp.WriteBlock(item); err != nil {
		return err
	}
	return tp.WriteMove(problems.Separator, tape.Forward)
}

// Compare orders two items like CHECK-SORT does: standard
// lexicographic byte order (for the paper's equal-length 0-1-strings
// this coincides with numeric order).
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// chunkCells is the block size of the chunked whole-tape sweeps
// (CountItems, CopyTape): large enough to amortize per-call cost,
// small enough that file-backed tapes are swept with O(1)
// internal buffering instead of pulling the whole tape into RAM.
const chunkCells = 64 << 10

// CountItems scans tp forward from the current head position to the
// end and returns the number of '#'-terminated items, using only a
// counter in internal memory (no item buffering). The sweep reads in
// chunkCells blocks through one reused buffer; tape accounting is
// identical to one ScanBytes (at most one forward turn, one read and
// one step per cell).
func CountItems(tp *tape.Tape, mem *memory.Meter, region string) (int, error) {
	count := 0
	buf := make([]byte, min(chunkCells, max(tp.Len()-tp.Pos(), 0)))
	for !tp.AtEnd() {
		data := buf[:min(chunkCells, tp.Len()-tp.Pos())]
		if err := tp.ReadBlockInto(data); err != nil {
			return 0, err
		}
		count += bytes.Count(data, []byte{problems.Separator})
	}
	// The counter only ever grows, so charging its final value records
	// the same peak as charging it after every separator.
	if count > 0 {
		if err := mem.SetInt(region, uint64(count)); err != nil {
			return 0, err
		}
	}
	mem.Free(region)
	return count, nil
}

// CopyTape appends everything from src's current head position to the
// end of its materialized region onto dst, in chunkCells blocks through
// one reused buffer, with O(1) internal memory. Tape accounting is
// identical to a single ScanBytes + WriteBlock: at most one forward
// turn per tape, one read/step per src cell, one write/step per dst
// cell.
func CopyTape(src, dst *tape.Tape) error {
	buf := make([]byte, min(chunkCells, max(src.Len()-src.Pos(), 0)))
	for !src.AtEnd() {
		data := buf[:min(chunkCells, src.Len()-src.Pos())]
		if err := src.ReadBlockInto(data); err != nil {
			return err
		}
		if err := dst.WriteBlock(data); err != nil {
			return err
		}
	}
	return nil
}

// itemRegion builds a meter region name for a buffered item.
func itemRegion(tag string) string { return "item." + tag }

// counterRegion builds a meter region name for a counter.
func counterRegion(tag string) string { return "counter." + tag }

// chargeCounter records the value of a named counter on the meter.
func chargeCounter(mem *memory.Meter, tag string, v uint64) error {
	return mem.SetInt(counterRegion(tag), v)
}

// verdictOf converts a boolean decision to a core.Verdict.
func verdictOf(b bool) core.Verdict {
	if b {
		return core.Accept
	}
	return core.Reject
}
