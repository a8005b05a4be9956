package tape

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
// temp file under Options) while the Tape itself owns the whole cost
// model: every reversal, step, read, write and MaxCell update is
// charged here, above the backend, so the choice of backend can never
// move a count. The zero value is not ready for use; call New,
// FromBytes, or their ...With variants.
//
// Every head operation reads and writes through one window of winSize
// cells: a pooled page the Tape owns, filled by one ReadAt when the
// window moves and flushed by one Grow and one WriteAt when it moves,
// when the head turns, and before Contents. The window is mechanics
// only: nothing in it is charged.
type Tape struct {
	name    string
	be      Backend
	opts    Options
	spillAt int // spill when materialized size exceeds this; <0 = never
	n       int // materialized cells; the backend's Len catches up at the next flush

	win      []byte // the window: cells [winOff, winOff+winSize), or nil
	winOff   int
	own      *page // the page under win; taken from the pool on first use
	dlo, dhi int   // cells written through the window since its last flush; none when dhi <= dlo

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
	t.place(data)
	return t
}

// Replace swaps the tape's content for a copy of data, placing the
// head on cell 0 moving forward while KEEPING every accumulated
// counter (reversals, steps, reads, writes, MaxCell). It models a
// mid-run tape handoff — the machine receives a physically different,
// rewound tape in this slot, but its own head history up to the swap
// stays on the books. No head movement is charged: the exchange is
// input placement, like FromBytes, not a rewind.
func (t *Tape) Replace(data []byte) {
	t.erase()
	t.place(data)
	t.pos = 0
	t.dir = Forward
}

// Close releases the storage backend's resources (spill files) and
// returns the tape's pages, zeroed, to the pool for the next tape.
// Close is idempotent; the only methods that may be called afterwards
// are Stats accessors.
func (t *Tape) Close() error {
	t.discard()
	if t.own != nil {
		putPage(t.own, winSize)
		t.own = nil
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
		Size:      t.n,
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
func (t *Tape) Len() int { return t.n }

// window moves the window over cell off if it does not cover it yet,
// and returns off's index in t.win. Moving flushes the old window
// first. The window is filled with the cells the backend holds, and
// the rest of it is Blank.
func (t *Tape) window(off int) int {
	if i := off - t.winOff; uint(i) < uint(len(t.win)) {
		return i
	}
	t.flush()
	po := off &^ (winSize - 1)
	if t.own == nil {
		t.own = getPage()
	}
	t.win = t.own[:]
	k := max(min(winSize, t.be.Len()-po), 0)
	if k > 0 {
		t.be.ReadAt(t.win[:k], po)
	}
	clear(t.win[k:])
	t.winOff = po
	return off - po
}

// wrote records that cells [lo, hi) of the window were written.
func (t *Tape) wrote(lo, hi int) {
	if t.dhi <= t.dlo {
		t.dlo, t.dhi = lo, hi
		return
	}
	t.dlo, t.dhi = min(t.dlo, lo), max(t.dhi, hi)
}

// flush hands the window's writes to the backend: it grows the backend
// over them and writes them back.
func (t *Tape) flush() {
	if t.dhi <= t.dlo {
		return
	}
	if t.dhi > t.be.Len() {
		t.be.Grow(t.dhi)
	}
	t.be.WriteAt(t.win[t.dlo-t.winOff:t.dhi-t.winOff], t.dlo)
	t.dlo, t.dhi = 0, 0
}

// discard drops the window and any writes it has not flushed.
func (t *Tape) discard() {
	t.win, t.winOff, t.dlo, t.dhi = nil, 0, 0, 0
}

// erase discards every cell, releasing the backend's storage.
func (t *Tape) erase() {
	t.discard()
	t.be.Reset()
	t.n = 0
}

// place puts data on the empty tape. Input placement is not a head
// operation, so it bypasses the window: one Grow and one WriteAt.
func (t *Tape) place(data []byte) {
	if len(data) == 0 {
		return
	}
	t.growTo(len(data))
	t.be.Grow(len(data))
	t.be.WriteAt(data, 0)
}

// readAt copies materialized cells [off, off+len(dst)) into dst
// through the window. The caller has clamped the range to [0, n).
func (t *Tape) readAt(dst []byte, off int) {
	for len(dst) > 0 {
		i := t.window(off)
		k := copy(dst, t.win[i:])
		dst, off = dst[k:], off+k
	}
}

// writeAt overwrites materialized cells [off, off+len(src)) through
// the window. The caller has grown the tape to cover the range.
func (t *Tape) writeAt(src []byte, off int) {
	for len(src) > 0 {
		i := t.window(off)
		k := copy(t.win[i:], src)
		t.wrote(off, off+k)
		src, off = src[k:], off+k
	}
}

// growTo materializes blank cells so the tape holds n, spilling to the
// storage backend first if n crosses the spill threshold. The backend
// learns of the new cells when the window holding them is flushed.
func (t *Tape) growTo(n int) {
	if t.spillAt >= 0 && n > t.spillAt {
		t.spill()
	}
	t.n = n
}

// spill migrates the cells from the in-RAM pre-spill backend to the
// configured storage backend, one window at a time. The content moved
// is at most the spill threshold plus one write, so the copy is small.
func (t *Tape) spill() {
	o := t.opts
	o.SpillThreshold = 0
	nb := NewBackend(o)
	if t.n > 0 {
		nb.Grow(t.n)
		for off := 0; off < t.n; off += winSize {
			t.window(off)
			nb.WriteAt(t.win[:min(winSize, t.n-off)], off)
		}
	}
	t.discard()
	t.be.Close()
	t.be, t.spillAt = nb, -1
}

// Read returns the symbol under the head. Reading past the end of the
// materialized region returns Blank without extending the tape.
func (t *Tape) Read() byte {
	t.reads++
	if t.pos >= t.n {
		return Blank
	}
	i := t.window(t.pos)
	return t.win[i]
}

// Write stores b in the cell under the head, materializing blank cells
// as needed in one sized extension.
func (t *Tape) Write(b byte) {
	t.writes++
	if t.pos >= t.n {
		t.growTo(t.pos + 1)
	}
	i := t.window(t.pos)
	t.win[i] = b
	t.wrote(t.pos, t.pos+1)
}

// turn registers a direction change if d differs from the current
// direction, charging one reversal. A reversal ends a scan, and the
// window's writes reach the backend by the end of the scan that made
// them: a failing disk fails that scan, however small the tape.
func (t *Tape) turn(d Direction) error {
	if d == t.dir {
		return nil
	}
	if t.hasBudget && t.reversals+1 > t.budget {
		return fmt.Errorf("%w: tape %q at %d reversals", ErrBudget, t.name, t.reversals)
	}
	t.flush()
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
func (t *Tape) AtEnd() bool { return t.pos >= t.n }

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
	out := make([]byte, n)
	if err := t.ReadBlockInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBlockInto is ReadBlock into the caller's slice: it reads len(p)
// cells with the head moving forward, counted exactly as ReadBlock
// counts them, and fills p with them, Blank past the materialized
// region. A sweep that reuses one p allocates nothing per block. On
// error p's contents are unspecified.
func (t *Tape) ReadBlockInto(p []byte) error {
	n := len(p)
	if n == 0 {
		return nil
	}
	if err := t.turn(Forward); err != nil {
		// The first ReadMove reads the cell before the refused turn.
		t.reads++
		return err
	}
	k := 0
	if t.pos < t.n {
		k = min(n, t.n-t.pos)
		t.readAt(p[:k], t.pos)
	}
	clear(p[k:])
	t.reads += int64(n)
	t.advanceForward(n)
	return nil
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
	if end := t.pos + len(data); end > t.n {
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
	out := make([]byte, n)
	k, err := t.ReadBlockBackwardInto(out)
	return out[:k], err
}

// ReadBlockBackwardInto is ReadBlockBackward into the caller's slice:
// it moves the head len(p) cells backward, reading each cell after its
// move, counted exactly as ReadBlockBackward counts them, fills p with
// the cells read in visit order, Blank at or past the materialized
// end, and returns how many it read. That is len(p) unless the head
// reaches cell 0 first, which returns ErrLeftEnd; a refused turn reads
// no cell. A sweep that reuses one p allocates nothing per block.
func (t *Tape) ReadBlockBackwardInto(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := t.turn(Backward); err != nil {
		return 0, err
	}
	k := min(len(p), t.pos)
	out := p[:k]
	// Read the tape range [pos-k, pos) forward, then reverse into
	// visit order.
	read := 0
	if lo := t.pos - k; lo < t.n {
		read = min(k, t.n-lo)
		t.readAt(out[:read], lo)
	}
	clear(out[read:])
	slices.Reverse(out)
	t.steps += int64(k)
	t.reads += int64(k)
	t.pos -= k
	if k < len(p) {
		return k, ErrLeftEnd
	}
	return k, nil
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
	if t.pos >= t.n {
		return nil
	}
	if err := t.turn(Forward); err != nil {
		return err
	}
	t.advanceForward(t.n - t.pos)
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
	n := t.n - t.pos
	out := make([]byte, n)
	t.readAt(out, t.pos)
	t.reads += int64(n)
	t.advanceForward(n)
	return out, nil
}

// ScanUntil reads forward until just past the first occurrence of
// delim and returns the bytes read, including the delimiter. If the
// materialized region ends before a delimiter is found, the bytes up
// to the end are returned with found = false and the head rests on the
// first blank cell.
//
// When the bytes lie in one window, data is a read-only view of the
// window: it is valid until the tape's next operation, and the caller
// must not write to it. When they straddle windows they are copied
// into *buf, which grows only when they exceed its capacity, so a loop
// that reads many items can reuse one buffer. Either way data covers
// only the cells the head has just read and been charged for.
func (t *Tape) ScanUntil(delim byte, buf *[]byte) (data []byte, found bool, err error) {
	if t.AtEnd() {
		return nil, false, nil
	}
	if err := t.turn(Forward); err != nil {
		// The first ReadMove reads the cell before the refused turn.
		t.reads++
		return nil, false, err
	}
	i := t.window(t.pos)
	end := min(winSize, t.n-t.winOff) // the segment's end in the window
	if j := bytes.IndexByte(t.win[i:end], delim); j >= 0 {
		data, found = t.win[i:i+j+1:i+j+1], true
	} else if t.winOff+end == t.n {
		data = t.win[i:end:end]
	} else {
		data = append((*buf)[:0], t.win[i:end]...)
		for off := t.winOff + end; off < t.n && !found; {
			i := t.window(off)
			seg := t.win[i:min(winSize, t.n-t.winOff)]
			if j := bytes.IndexByte(seg, delim); j >= 0 {
				seg, found = seg[:j+1], true
			}
			data = append(data, seg...)
			off += len(seg)
		}
		*buf = data
	}
	t.reads += int64(len(data))
	t.advanceForward(len(data))
	return data, found, nil
}

// CopyDelimited copies up to count delim-terminated items from t's
// head to dst's head, both moving forward, straight from t's window
// into dst's, and returns the number of items copied (fewer than count
// if t ran out). If t ends inside an item, that item's bytes are
// copied too and partial is true. It is accounted exactly as count
// rounds of ScanUntil on t followed by a WriteBlock of the bytes read
// on dst, a refused turn on either tape included, and it copies only
// cells the head has read and been charged for. dst must be another
// tape.
func (t *Tape) CopyDelimited(dst *Tape, delim byte, count int) (n int, partial bool, err error) {
	if dst == t {
		panic("tape: CopyDelimited onto its own tape")
	}
	if count <= 0 || t.AtEnd() {
		return 0, false, nil
	}
	if err := t.turn(Forward); err != nil {
		// The first ReadMove reads the cell before the refused turn.
		t.reads++
		return 0, false, err
	}
	if err := dst.turn(Forward); err != nil {
		// The first item was read before its write met the refused
		// turn, which wrote the item's first cell.
		var buf []byte
		rec, _, _ := t.ScanUntil(delim, &buf)
		dst.Write(rec[0])
		return 0, false, err
	}
	for n < count && t.pos < t.n {
		i := t.window(t.pos)
		seg := t.win[i:min(winSize, t.n-t.winOff)]
		k := 0 // cells of seg to copy
		for n < count {
			j := bytes.IndexByte(seg[k:], delim)
			if j < 0 {
				// The item runs on past the segment: copy what it has.
				k = len(seg)
				break
			}
			k += j + 1
			n++
		}
		if end := dst.pos + k; end > dst.n {
			dst.growTo(end)
		}
		dst.writeAt(seg[:k], dst.pos)
		dst.writes += int64(k)
		dst.advanceForward(k)
		partial = seg[k-1] != delim
		t.reads += int64(k)
		t.advanceForward(k)
	}
	return n, partial, nil
}

// Truncate discards all content from the current head position to the
// right. It models overwriting the rest of a tape with blanks in one
// sweep and is charged zero reversals (a real machine pays them when it
// actually revisits those cells).
func (t *Tape) Truncate() {
	if t.pos >= t.n {
		return
	}
	// Window writes at or past the head die unflushed, blanked in place.
	if t.dhi > t.pos {
		lo := max(t.pos, t.dlo)
		clear(t.win[lo-t.winOff : t.dhi-t.winOff])
		t.dhi = lo
	}
	t.n = t.pos
	if t.pos < t.be.Len() {
		t.flush()
		t.be.Truncate(t.pos)
		t.discard()
	}
}

// Reset erases the tape's content (releasing any spill space) and
// returns the head to cell 0 without touching the resource counters.
// It models switching to a fresh region of a device and is used only
// by test helpers.
func (t *Tape) Reset() {
	t.erase()
	t.pos = 0
}

// Contents returns a copy of the materialized cells. The returned
// slice is owned by the caller on every backend: mutating it never
// changes the tape, and later tape writes never change it. Like input
// placement it is not a head operation: it flushes the window and
// copies the tape out in one ReadAt.
func (t *Tape) Contents() []byte { return t.AppendContents(make([]byte, 0, t.n)) }

// AppendContents is Contents into a caller's buffer: it appends a copy
// of the materialized cells to dst and returns the extended slice,
// growing it only when dst lacks the room. Like Contents it is not a
// head operation and charges nothing.
func (t *Tape) AppendContents(dst []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, t.n)[:n+t.n]
	t.flush()
	// Cells past the backend's Len were never written: they read Blank.
	k := min(t.n, t.be.Len())
	if k > 0 {
		t.be.ReadAt(dst[n:n+k], 0)
	}
	clear(dst[n+k:])
	return dst
}

// String returns a short diagnostic description of the tape.
func (t *Tape) String() string {
	return fmt.Sprintf("tape %q: pos=%d dir=%s rev=%d len=%d", t.name, t.pos, t.dir, t.reversals, t.n)
}
