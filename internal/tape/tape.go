package tape

import (
	"bytes"
	"errors"
	"fmt"
)

// Blank is the blank symbol found in cells that were never written.
// It plays the role of the Turing machine blank ✷.
const Blank byte = 0

// Direction is the direction of head movement.
type Direction int8

// Directions of head movement. A fresh tape starts moving Forward.
const (
	Forward  Direction = +1
	Backward Direction = -1
)

func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// ErrBudget is returned (wrapped) when an operation would exceed the
// reversal budget configured with SetBudget.
var ErrBudget = errors.New("tape: reversal budget exhausted")

// ErrLeftEnd is returned when the head would fall off the left end of
// the tape.
var ErrLeftEnd = errors.New("tape: head moved past left end")

// Stats is a snapshot of a tape's resource counters.
type Stats struct {
	Reversals int   // number of changes of the head direction
	Steps     int64 // number of single-cell head movements
	Reads     int64 // number of Read operations
	Writes    int64 // number of Write operations
	MaxCell   int   // highest cell index ever visited
	Size      int   // number of cells currently materialized
}

// Scans is the number of sequential scans this tape has performed:
// 1 + Reversals, following the convention of Definition 1 in the
// paper.
func (s Stats) Scans() int { return 1 + s.Reversals }

// A Tape is a one-sided infinite tape of byte cells with a read/write
// head. The cells live in a storage Backend (in RAM by default; in a
// temp file or a memory mapping under Options) while the Tape itself
// owns the whole cost model: every reversal, step, read, write and
// MaxCell update is charged here, above the backend, so the choice of
// backend can never move a count. The zero value is not ready for use;
// call New, FromBytes, or their ...With variants.
type Tape struct {
	name      string
	be        Backend
	fast      *memBackend // == be when it is an unwrapped memBackend; else nil
	opts      Options
	spillAt   int // spill when materialized size exceeds this; <0 = never
	pos       int // current head position (0-based)
	dir       Direction
	reversals int
	steps     int64
	reads     int64
	writes    int64
	maxCell   int

	budget    int  // maximum reversals allowed; <0 means unlimited
	hasBudget bool // whether budget applies
}

// New returns an empty in-memory tape with the given diagnostic name.
func New(name string) *Tape { return NewWith(name, Options{}) }

// NewWith returns an empty tape whose cells live in the storage the
// options select. Invalid options (Options.Validate) panic: tapes are
// constructed deep inside machines, and silently dropping a
// misconfigured spill threshold is worse than failing loudly where
// the configuration bug is.
func NewWith(name string, o Options) *Tape {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	t := &Tape{name: name, dir: Forward, budget: -1, opts: o}
	if o.storage() != Mem && o.SpillThreshold > 0 {
		// Start in RAM; spill to the storage backend when the
		// materialized size first exceeds the threshold.
		pre := o
		pre.Storage = Mem
		t.be = NewBackend(pre)
		t.spillAt = o.SpillThreshold
	} else {
		t.be = NewBackend(o)
		t.spillAt = -1
	}
	if mb, ok := t.be.(*memBackend); ok {
		t.fast = mb
	}
	return t
}

// FromBytes returns a tape whose initial content is a copy of data,
// with the head on cell 0 moving forward. It is the standard way to
// present an input word to a machine. Visit tracking (MaxCell) starts
// at cell 0 and is advanced by head movement only.
func FromBytes(name string, data []byte) *Tape {
	return FromBytesWith(name, data, Options{})
}

// FromBytesWith is FromBytes with an explicit storage selection.
func FromBytesWith(name string, data []byte, o Options) *Tape {
	t := NewWith(name, o)
	if len(data) > 0 {
		t.growTo(len(data))
		t.writeAt(data, 0)
	}
	return t
}

// FromString is FromBytes for a string input.
func FromString(name, data string) *Tape { return FromBytes(name, []byte(data)) }

// Replace swaps the tape's content for a copy of data, placing the
// head on cell 0 moving forward while KEEPING every accumulated
// counter (reversals, steps, reads, writes, MaxCell). It models a
// mid-run tape handoff — the machine receives a physically different,
// rewound tape in this slot, but its own head history up to the swap
// stays on the books. No head movement is charged: the exchange is
// input placement, like FromBytes, not a rewind.
func (t *Tape) Replace(data []byte) {
	t.be.Reset()
	if len(data) > 0 {
		t.growTo(len(data))
		t.writeAt(data, 0)
	}
	t.pos = 0
	t.dir = Forward
}

// Close releases the storage backend's resources (spill files,
// mappings). Mem-backed tapes release their cell array. Close is
// idempotent; the only methods that may be called afterwards are
// Stats accessors.
func (t *Tape) Close() error {
	if t.be == nil {
		return nil
	}
	return t.be.Close()
}

// StorageKind reports which backend currently holds the cells. A tape
// with a spill threshold reports Mem until it actually spills.
func (t *Tape) StorageKind() Storage { return t.be.Kind() }

// Name returns the diagnostic name of the tape.
func (t *Tape) Name() string { return t.name }

// SetBudget limits the number of head reversals this tape may perform.
// Operations that would exceed the budget return an error wrapping
// ErrBudget. A negative budget means unlimited.
func (t *Tape) SetBudget(reversals int) {
	t.budget = reversals
	t.hasBudget = reversals >= 0
}

// Stats returns a snapshot of the tape's resource counters.
func (t *Tape) Stats() Stats {
	return Stats{
		Reversals: t.reversals,
		Steps:     t.steps,
		Reads:     t.reads,
		Writes:    t.writes,
		MaxCell:   t.maxCell,
		Size:      t.length(),
	}
}

// Reversals returns the number of head-direction changes so far.
func (t *Tape) Reversals() int { return t.reversals }

// Pos returns the current head position (0-based cell index).
func (t *Tape) Pos() int { return t.pos }

// Dir returns the current direction of head movement.
func (t *Tape) Dir() Direction { return t.dir }

// Len returns the number of materialized cells (cells at or before the
// highest cell ever written or visited).
func (t *Tape) Len() int { return t.length() }

// length is the materialized cell count, bypassing the interface on
// the common unwrapped in-memory backend.
func (t *Tape) length() int {
	if f := t.fast; f != nil {
		return len(f.cells)
	}
	return t.be.Len()
}

// readAt copies materialized cells [off, off+len(dst)) into dst. The
// caller has clamped the range to [0, length()).
func (t *Tape) readAt(dst []byte, off int) {
	if len(dst) == 0 {
		return
	}
	if f := t.fast; f != nil {
		copy(dst, f.cells[off:])
		return
	}
	t.be.ReadAt(dst, off)
}

// writeAt overwrites materialized cells [off, off+len(src)). The
// caller has grown the tape to cover the range.
func (t *Tape) writeAt(src []byte, off int) {
	if len(src) == 0 {
		return
	}
	if f := t.fast; f != nil {
		copy(f.cells[off:], src)
		return
	}
	t.be.WriteAt(src, off)
}

// indexByte finds the first delim at index >= off, or -1.
func (t *Tape) indexByte(delim byte, off int) int {
	if f := t.fast; f != nil {
		if i := bytes.IndexByte(f.cells[off:], delim); i >= 0 {
			return off + i
		}
		return -1
	}
	return t.be.IndexByte(delim, off)
}

// growTo materializes blank cells so the tape holds n, spilling to the
// storage backend first if n crosses the spill threshold.
func (t *Tape) growTo(n int) {
	if t.spillAt >= 0 && n > t.spillAt {
		t.spill()
	}
	if f := t.fast; f != nil {
		f.Grow(n)
		return
	}
	t.be.Grow(n)
}

// spill migrates the cells from the in-RAM pre-spill backend to the
// configured storage backend. The content moved is at most the spill
// threshold plus one write, so the copy is small; it streams in pages
// regardless.
func (t *Tape) spill() {
	o := t.opts
	o.SpillThreshold = 0
	nb := NewBackend(o)
	old := t.be
	if k := old.Len(); k > 0 {
		nb.Grow(k)
		buf := make([]byte, min(k, filePage))
		for off := 0; off < k; off += len(buf) {
			m := min(len(buf), k-off)
			old.ReadAt(buf[:m], off)
			nb.WriteAt(buf[:m], off)
		}
	}
	old.Close()
	t.be, t.fast, t.spillAt = nb, nil, -1
}

// Read returns the symbol under the head. Reading past the end of the
// materialized region returns Blank without extending the tape.
func (t *Tape) Read() byte {
	t.reads++
	if f := t.fast; f != nil {
		if t.pos < len(f.cells) {
			return f.cells[t.pos]
		}
		return Blank
	}
	if t.pos < t.be.Len() {
		return t.be.Cell(t.pos)
	}
	return Blank
}

// Write stores b in the cell under the head, materializing blank cells
// as needed in one sized extension.
func (t *Tape) Write(b byte) {
	t.writes++
	if t.pos >= t.length() {
		t.growTo(t.pos + 1)
	}
	if f := t.fast; f != nil {
		f.cells[t.pos] = b
		return
	}
	t.be.SetCell(t.pos, b)
}

// turn registers a direction change if d differs from the current
// direction, charging one reversal.
func (t *Tape) turn(d Direction) error {
	if d == t.dir {
		return nil
	}
	if t.hasBudget && t.reversals+1 > t.budget {
		return fmt.Errorf("%w: tape %q at %d reversals", ErrBudget, t.name, t.reversals)
	}
	t.reversals++
	t.dir = d
	return nil
}

// Move steps the head one cell in direction d. Moving backward from
// cell 0 returns ErrLeftEnd and leaves the head in place (the reversal,
// if any, is still charged, mirroring a Turing machine that switched
// direction before noticing the tape end).
func (t *Tape) Move(d Direction) error {
	if err := t.turn(d); err != nil {
		return err
	}
	if d == Backward && t.pos == 0 {
		return ErrLeftEnd
	}
	t.pos += int(d)
	t.steps++
	if t.pos > t.maxCell {
		t.maxCell = t.pos
	}
	return nil
}

// MoveForward steps the head one cell to the right.
func (t *Tape) MoveForward() error { return t.Move(Forward) }

// MoveBackward steps the head one cell to the left.
func (t *Tape) MoveBackward() error { return t.Move(Backward) }

// ReadMove reads the symbol under the head and then steps in
// direction d.
func (t *Tape) ReadMove(d Direction) (byte, error) {
	b := t.Read()
	return b, t.Move(d)
}

// WriteMove writes b to the cell under the head and then steps in
// direction d.
func (t *Tape) WriteMove(b byte, d Direction) error {
	t.Write(b)
	return t.Move(d)
}

// AtEnd reports whether the head is past the last materialized cell,
// i.e. the current cell and everything to the right is blank.
func (t *Tape) AtEnd() bool { return t.pos >= t.length() }

// AtStart reports whether the head is on cell 0.
func (t *Tape) AtStart() bool { return t.pos == 0 }

// advanceForward batch-charges a forward sweep of n cells: n steps and
// the MaxCell high-water mark in one update. The caller has already
// performed (and paid for) the turn.
func (t *Tape) advanceForward(n int) {
	t.steps += int64(n)
	t.pos += n
	if t.pos > t.maxCell {
		t.maxCell = t.pos
	}
}

// ReadBlock reads n cells with the head moving forward and returns the
// bytes read, exactly as n repetitions of ReadMove(Forward): cells past
// the materialized region read Blank, and the head may end beyond the
// materialized region. The returned slice is a fresh copy owned by the
// caller on every backend; mutating it never touches the tape.
func (t *Tape) ReadBlock(n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	if err := t.turn(Forward); err != nil {
		// The first ReadMove reads the cell before the refused turn.
		t.reads++
		return nil, err
	}
	out := make([]byte, n)
	if L := t.length(); t.pos < L {
		t.readAt(out[:min(n, L-t.pos)], t.pos)
	}
	t.reads += int64(n)
	t.advanceForward(n)
	return out, nil
}

// WriteBlock writes data with the head moving forward, exactly as
// len(data) repetitions of WriteMove(b, Forward), materializing any
// blank gap up to the head in one sized extension.
func (t *Tape) WriteBlock(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if err := t.turn(Forward); err != nil {
		// The first WriteMove writes its cell before the refused turn.
		t.Write(data[0])
		return err
	}
	if end := t.pos + len(data); end > t.length() {
		t.growTo(end)
	}
	t.writeAt(data, t.pos)
	t.writes += int64(len(data))
	t.advanceForward(len(data))
	return nil
}

// ReadBlockBackward moves the head n cells backward, reading each cell
// after its move, exactly as n repetitions of MoveBackward+Read. The
// returned bytes are in visit order (reverse tape order). If the head
// reaches cell 0 before n cells are read, the bytes read so far are
// returned with ErrLeftEnd. The returned slice is a fresh copy owned
// by the caller on every backend.
func (t *Tape) ReadBlockBackward(n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	if err := t.turn(Backward); err != nil {
		return nil, err
	}
	k := n
	if t.pos < k {
		k = t.pos
	}
	out := make([]byte, k)
	// Read the tape range [pos-k, pos) forward, then reverse into
	// visit order. Cells at or past the materialized end stay Blank.
	if lo := t.pos - k; lo < t.length() {
		t.readAt(out[:min(k, t.length()-lo)], lo)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	t.steps += int64(k)
	t.reads += int64(k)
	t.pos -= k
	if k < n {
		return out, ErrLeftEnd
	}
	return out, nil
}

// MoveBackwardN steps the head n cells backward without reading,
// exactly as n repetitions of MoveBackward. Reaching cell 0 before n
// steps returns ErrLeftEnd.
func (t *Tape) MoveBackwardN(n int) error {
	if n <= 0 {
		return nil
	}
	if err := t.turn(Backward); err != nil {
		return err
	}
	k := n
	if t.pos < k {
		k = t.pos
	}
	t.steps += int64(k)
	t.pos -= k
	if k < n {
		return ErrLeftEnd
	}
	return nil
}

// Rewind moves the head back to cell 0 in one backward sweep. It pays
// at most one reversal (plus one more when the caller next moves
// forward).
func (t *Tape) Rewind() error {
	if t.pos == 0 {
		return nil
	}
	if err := t.turn(Backward); err != nil {
		return err
	}
	t.steps += int64(t.pos)
	t.pos = 0
	return nil
}

// SeekEnd moves the head forward to the first blank cell after the
// materialized content in one forward sweep.
func (t *Tape) SeekEnd() error {
	if t.pos >= t.length() {
		return nil
	}
	if err := t.turn(Forward); err != nil {
		return err
	}
	t.advanceForward(t.length() - t.pos)
	return nil
}

// ScanBytes reads from the current head position forward to the end of
// the materialized region and returns the bytes read. The head ends at
// the first blank cell. The returned slice is a fresh copy owned by
// the caller on every backend; it never aliases the cell storage.
func (t *Tape) ScanBytes() ([]byte, error) {
	if t.AtEnd() {
		return nil, nil
	}
	if err := t.turn(Forward); err != nil {
		// The first ReadMove reads the cell before the refused turn.
		t.reads++
		return nil, err
	}
	n := t.length() - t.pos
	out := make([]byte, n)
	t.readAt(out, t.pos)
	t.reads += int64(n)
	t.advanceForward(n)
	return out, nil
}

// ScanUntilAppend reads forward until just past the first occurrence of
// delim and returns the bytes read, including the delimiter. If the
// materialized region ends before a delimiter is found, the bytes up
// to the end are returned with found = false and the head rests on the
// first blank cell. The bytes are copied into buf[:0], which grows
// only when they exceed its capacity, so a loop that reads many items
// can reuse one buffer; the result never aliases the cell storage.
func (t *Tape) ScanUntilAppend(delim byte, buf []byte) (data []byte, found bool, err error) {
	if t.AtEnd() {
		return buf[:0], false, nil
	}
	if err := t.turn(Forward); err != nil {
		// The first ReadMove reads the cell before the refused turn.
		t.reads++
		return buf[:0], false, err
	}
	n := t.length() - t.pos
	if i := t.indexByte(delim, t.pos); i >= 0 {
		n = i - t.pos + 1
		found = true
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	data = buf[:n]
	t.readAt(data, t.pos)
	t.reads += int64(n)
	t.advanceForward(n)
	return data, found, nil
}

// AppendBytes writes data starting at the current head position,
// moving forward. It is WriteBlock under its historical name.
func (t *Tape) AppendBytes(data []byte) error { return t.WriteBlock(data) }

// Truncate discards all content from the current head position to the
// right. It models overwriting the rest of a tape with blanks in one
// sweep and is charged zero reversals (a real machine pays them when it
// actually revisits those cells).
func (t *Tape) Truncate() {
	if t.pos < t.length() {
		t.be.Truncate(t.pos)
	}
}

// Reset erases the tape's content (releasing any spill space) and
// returns the head to cell 0 without touching the resource counters.
// It models switching to a fresh region of a device and is used only
// by test helpers.
func (t *Tape) Reset() {
	t.be.Reset()
	t.pos = 0
}

// Contents returns a copy of the materialized cells. The returned
// slice is owned by the caller on every backend: mutating it never
// changes the tape, and later tape writes never change it.
func (t *Tape) Contents() []byte {
	out := make([]byte, t.length())
	t.readAt(out, 0)
	return out
}

// String returns a short diagnostic description of the tape.
func (t *Tape) String() string {
	return fmt.Sprintf("tape %q: pos=%d dir=%s rev=%d len=%d", t.name, t.pos, t.dir, t.reversals, t.length())
}
