// Package tape implements the external-memory tape device of the ST
// model of Grohe, Hernich and Schweikardt, "Randomized Computations
// on Large Data Sets: Tight Lower Bounds" (PODS 2006).
//
// A Tape is a one-sided infinite sequence of byte cells with a single
// read/write head. The two cost measures of the paper's Definition 1
// are tracked exactly:
//
//   - head reversals: every change of the head's direction of movement
//     increments the reversal counter. Following Definition 1, the
//     number of sequential scans of a tape is 1 + reversals — the r in
//     the class ST(r, s, t). Stats.Scans computes it; core.Machine
//     sums it across all tapes.
//   - space: the number of cells ever touched (MaxCell, Size). The
//     internal-memory measure s is tracked separately by
//     internal/memory; this package only meters the external device.
//
// Random access is not offered by the API: a machine may only step the
// head one cell at a time, exactly as on a Turing machine tape. This
// restriction is what the paper's lower bounds (Theorem 6 via the
// list-machine simulation of Lemma 16) exploit, so the device must
// not leak shortcuts.
//
// # Bulk operations and the cost-model invariant
//
// In addition to the single-cell primitives (Move, Read, Write), the
// package offers bulk operations that sweep a whole direction in one
// call: ReadBlock, WriteBlock, ScanBytes, ScanUntil, CopyDelimited,
// ReadBlockBackward, MoveBackwardN, Rewind and SeekEnd. ReadBlockInto
// and ReadBlockBackwardInto are ReadBlock and ReadBlockBackward into
// the caller's slice, so a sweep can reuse one buffer.
// CopyDelimited moves up to count delimiter-terminated items from one
// tape's window straight into another's, accounted as one ScanUntil
// and one WriteBlock per item. Bulk ops are
// performance sugar only — each is defined as, and accounted exactly
// like, the equivalent sequence of single-cell steps: reversal,
// step, read and write counters, MaxCell, Size, the head position,
// budget enforcement and error behavior are all identical to the
// step-by-step path. The difference is purely mechanical: a sweep of
// n cells performs one copy/append and one batched counter update
// instead of n method calls. This invariant is enforced by the
// differential property tests in diff_test.go.
//
// Reversal budgets (SetBudget) realize the r(N) resource bound of the
// complexity classes: a machine that would exceed its scan budget
// gets ErrBudget, which the Las Vegas experiments (Corollary 10, E5)
// use to make budget-starved runs answer "I don't know".
//
// # Storage backends and the backend contract
//
// Where the cells live is a second, orthogonal seam: Backend is a flat
// cell store (Len, Cell/SetCell, ReadAt/WriteAt, IndexByte, Grow,
// Truncate, Reset, Close) and Options{Storage, SpillDir,
// SpillThreshold} selects one per tape — Mem (fixed 64 KiB pages from
// a process-wide sync.Pool) or File (pread/pwrite over an unlinked
// temp file). SpillThreshold > 0 starts a File tape in RAM and
// migrates it to the file the first time it outgrows the threshold.
// The cost model never sees the medium, so one out-of-core backend is
// enough: File sits behind the same owned window as Mem, and a memory
// mapping would only add a second copy path.
//
// Every head operation reads and writes through one 64 KiB window, so
// a backend sees one call per window fill or flush, never one per
// item. The window is a pooled page the Tape owns on every backend:
// one ReadAt fills it, and one Grow and one WriteAt flush it when the
// window moves, when the head turns, and before Contents. The mem
// backend keeps its cells in pooled pages of the same size, so growth
// never copies a cell. Input placement (FromBytes, Replace) and
// Contents are not head operations and move the whole tape in one
// call. Truncate, Reset and Close hand freed pages back to the pool
// zeroed, so the next tape, often the next job's, reuses them and
// reads Blank. The window and the page size are constants: no option
// selects them.
//
// The contract every backend must honor — "the backend may move the
// bytes' home, never a count":
//
//   - All accounting lives in Tape, above the interface and above the
//     window, charged per item exactly as the step-by-step model
//     does. A backend never touches a counter, so Stats, budgets and
//     error behavior are byte-identical on every backend; the
//     conformance suite (forEachBackend tables, the lockstep driver
//     against an independent flat reference tape, FuzzTapeBackend)
//     enforces equality of results, head and Stats after every
//     operation, and of contents at random operations and at the end.
//   - Cells at index ≥ Len read Blank after any Grow: Grow extends
//     with zeroes, Truncate forgets the tail so a re-grown range
//     reads Blank again (the file backend ftruncates; the mem backend
//     zeroes the dropped range and pools whole pages). The window is
//     dropped whenever the cells it was filled from may change under
//     it: by Truncate, Reset, Close, Replace and a spill.
//   - Slices returned by Tape (ReadBlock, ReadBlockBackward,
//     ScanBytes, Contents) are fresh copies owned by the caller on
//     every backend — mutation never reaches the tape and tape writes
//     never reach a returned slice (alias_test.go). ScanUntil is the
//     one exception: bytes that lie in one window come back as a
//     read-only view of it, valid until the tape's next operation, and
//     only bytes that straddle two windows are copied, into the
//     caller's buffer. A view or a copy covers only cells the head has
//     just read and been charged for, so neither gives look-ahead.
//   - Spill files are created unlinked (os.CreateTemp + immediate
//     Remove), so the directory never holds an entry and any exit —
//     Close, SIGINT or SIGKILL — reclaims the inode.
//   - I/O failures surface as panics carrying *IOError (errors.Is
//     ErrStorage); the single-cell API has no error returns, and the
//     shard layer's recovery converts the panic into its ordinary
//     retry → fallback path.
package tape
