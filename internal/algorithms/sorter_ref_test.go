package algorithms

// sorter_ref_test.go holds the k-way sort engine's accounting to a
// reference: the engine as it was before items were read as views of
// the tape window and copied a run at a time. refSort's formRuns,
// distribute, merge and mergeGroup, refMergeTapes and the three
// Corollary 7 deciders below are that engine verbatim, renamed, over
// its own item path: refItemReader copies every item into a buffer it
// reuses, copies a run one record at a time, and formation writes one
// WriteItem per item. Its delimiter scan, refScanUntilAppend, reads
// one ReadMove at a time, so a fault in the tape's view scan or bulk
// copy cannot show on both sides. TestSorterMatchesStepReference and
// FuzzSorterKernel require the output, every tape's contents and
// Stats, the meter's current and peak usage and every region, and the
// error text to be identical.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"extmem/internal/core"
	"extmem/internal/memory"
	"extmem/internal/problems"
	"extmem/internal/tape"
)

// refScanUntilAppend is the reference item path's delimiter scan: it
// reads forward one ReadMove at a time until just past delim or the
// end of the materialized region, appending the bytes read to buf[:0].
func refScanUntilAppend(tp *tape.Tape, delim byte, buf []byte) ([]byte, bool, error) {
	data := buf[:0]
	for !tp.AtEnd() {
		b, err := tp.ReadMove(tape.Forward)
		if err != nil {
			return data, false, err
		}
		data = append(data, b)
		if b == delim {
			return data, true, nil
		}
	}
	return data, false, nil
}

type refItemReader struct {
	tp     *tape.Tape
	mem    *memory.Meter
	region string
	reg    *memory.Register
	rec    []byte // the last item read, followed by its separator
}

func newRefItemReader(tp *tape.Tape, mem *memory.Meter, region string) *refItemReader {
	return &refItemReader{tp: tp, mem: mem, region: region, reg: mem.Register(region)}
}

func (r *refItemReader) Next() (item []byte, ok bool, err error) {
	if r.tp.AtEnd() {
		r.mem.Free(r.region)
		return nil, false, nil
	}
	if err := r.reg.Set(0); err != nil {
		return nil, false, err
	}
	found, err := r.scan()
	if err != nil {
		return nil, false, err
	}
	if !found {
		return nil, false, fmt.Errorf("algorithms: item on tape %q not terminated by %q", r.tp.Name(), problems.Separator)
	}
	item = r.rec[:len(r.rec)-1]
	// The buffer grew one symbol at a time; its peak is its final size.
	if err := r.reg.Set(int64(len(item))); err != nil {
		return nil, false, err
	}
	return item, true, nil
}

func (r *refItemReader) Record() []byte { return r.rec }

func (r *refItemReader) CopyItems(dst *tape.Tape, count int) (int, error) {
	copied := 0
	for copied < count && !r.tp.AtEnd() {
		found, err := r.scan()
		if err != nil {
			return copied, err
		}
		if err := dst.WriteBlock(r.rec); err != nil {
			return copied, err
		}
		if !found {
			return copied, fmt.Errorf("algorithms: unterminated item while copying from %q", r.tp.Name())
		}
		copied++
	}
	return copied, nil
}

func (r *refItemReader) scan() (found bool, err error) {
	r.rec, found, err = refScanUntilAppend(r.tp, problems.Separator, r.rec)
	return found, err
}

func refMergeTapes(m *core.Machine, dst int, srcs []int, dedup bool) error {
	if len(srcs) == 0 {
		return rewindTruncateTape(m.Tape(dst))
	}
	seen := map[int]bool{dst: true}
	for _, s := range srcs {
		if seen[s] {
			return fmt.Errorf("algorithms: refMergeTapes needs distinct tapes, got dst %d and srcs %v", dst, srcs)
		}
		seen[s] = true
	}
	lanes := make([]*tape.Tape, len(srcs))
	for i, s := range srcs {
		lanes[i] = m.Tape(s)
	}
	st := newRefSortState(m, m.Tape(dst), lanes)
	defer st.freeRegions()
	k := len(srcs)
	if k > 2 {
		if err := st.mem.Set(counterRegion("sort.tree"), int64((k-1)*bitsFor(k))); err != nil {
			return err
		}
	}
	st.tree = newLoserTree(k)
	// Each lane holds exactly one (whole-tape) run: a single merge pass
	// with an unbounded per-lane run length consumes everything.
	return st.merge(math.MaxInt, k, dedup)
}

func refSort(s Sorter, m *core.Machine, src int, work []int) error {
	k := s.fanIn()
	if len(work) < k {
		return fmt.Errorf("algorithms: Sorter fan-in %d needs %d work tapes, got %d", k, k, len(work))
	}
	work = work[:k]
	seen := map[int]bool{src: true}
	for _, w := range work {
		if seen[w] {
			return fmt.Errorf("algorithms: Sorter needs distinct tapes, got src %d and work %v", src, work)
		}
		seen[w] = true
	}

	lanes := make([]*tape.Tape, k)
	for i, w := range work {
		lanes[i] = m.Tape(w)
	}
	st := newRefSortState(m, m.Tape(src), lanes)
	defer st.freeRegions()

	if err := st.src.Rewind(); err != nil {
		return err
	}

	total := -1 // -1: unknown, counted during the first sweep
	runLen := 1
	onLanes := false

	if s.RunMemoryBits > 0 {
		done, n, rl, err := st.formRuns(s.RunMemoryBits, s.Dedup)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		total, runLen, onLanes = n, rl, true
	}

	// The loser tree's internal nodes (lane indices) are machine
	// state; a 2-way merge needs none (the comparison is direct).
	if k > 2 {
		if err := st.mem.Set(counterRegion("sort.tree"), int64((k-1)*bitsFor(k))); err != nil {
			return err
		}
	}
	st.tree = newLoserTree(k)

	for total < 0 || runLen < total {
		if err := chargeCounter(st.mem, "sort.runlen", uint64(runLen)); err != nil {
			return err
		}
		if !onLanes {
			n, err := st.distribute(runLen, total)
			if err != nil {
				return err
			}
			if total < 0 {
				total = n
			}
		}
		if total == 0 {
			break
		}
		runs := (total + runLen - 1) / runLen
		final := total <= runLen*k
		if err := st.merge(runLen, min(k, runs), final && s.Dedup); err != nil {
			return err
		}
		onLanes = false
		runLen *= k
	}
	return st.src.Rewind()
}

type refSortState struct {
	m     *core.Machine
	mem   *memory.Meter
	src   *tape.Tape
	in    *refItemReader // src's items: formation reads and distribution copies
	lanes []*tape.Tape
	laneR []*refItemReader // one reader per lane, its item charged to sort.run<i>
	k     int
	tree  *loserTree
}

func newRefSortState(m *core.Machine, src *tape.Tape, lanes []*tape.Tape) *refSortState {
	mem := m.Mem()
	k := len(lanes)
	st := &refSortState{
		m:     m,
		mem:   mem,
		src:   src,
		in:    newRefItemReader(src, mem, itemRegion("sort.form")),
		lanes: lanes,
		laneR: make([]*refItemReader, k),
		k:     k,
	}
	for i, lane := range lanes {
		st.laneR[i] = newRefItemReader(lane, mem, itemRegion(fmt.Sprintf("sort.run%d", i)))
	}
	return st
}

func (st *refSortState) freeRegions() {
	mem := st.mem
	mem.Free(counterRegion("sort.runlen"))
	mem.Free(counterRegion("sort.tree"))
	mem.Free(itemRegion("sort.runbuf"))
	mem.Free(itemRegion("sort.dedupprev"))
	for _, rd := range st.laneR {
		mem.Free(rd.region)
	}
}

func (st *refSortState) formRuns(budget int64, dedup bool) (done bool, total, runLen0 int, err error) {
	mem := st.mem
	defer mem.Free(st.in.region)
	head := mem.Register(st.in.region)
	buf := mem.Register(itemRegion("sort.runbuf"))

	var (
		// The run buffer: the run's items back to back, exactly what
		// sort.runbuf charges, reused for every run. The first run
		// fills at most the budget, so sizing the buffer there (capped
		// by the input) spares it the copies of growing.
		arena    = make([]byte, 0, min(budget, int64(st.src.Len())))
		run      [][]byte // the run's items, slices of arena
		planner  = RunPlanner{Budget: budget}
		runCount = 0
		prepared = make([]bool, st.k)
	)

	flush := func() error {
		lane := st.lanes[runCount%st.k]
		if !prepared[runCount%st.k] {
			if err := rewindTruncateTape(lane); err != nil {
				return err
			}
			prepared[runCount%st.k] = true
		}
		sortItems(run)
		for _, it := range run {
			if err := WriteItem(lane, it); err != nil {
				return err
			}
		}
		runCount++
		arena, run = arena[:0], run[:0]
		return buf.Set(0)
	}

	for {
		item, ok, rerr := st.in.Next()
		if rerr != nil {
			return false, 0, 0, rerr
		}
		if !ok {
			break
		}
		total++
		// The planner applies the greedy fixed-count rule: the first
		// run fills the budget, its item count becomes the per-run
		// count. A new run flushes the buffered one.
		if planner.Next(int64(len(item))) && len(run) > 0 {
			if err := flush(); err != nil {
				return false, 0, 0, err
			}
		}
		// The item moves from the read head into the run buffer: hand
		// the charge over so the peak is the buffer size, not double.
		if err := head.Set(0); err != nil {
			return false, 0, 0, err
		}
		if err := buf.Set(int64(len(arena) + len(item))); err != nil {
			return false, 0, 0, err
		}
		// The reader reuses its buffer, so the item is copied out.
		arena = append(arena, item...)
		run = append(run, arena[len(arena)-len(item):len(arena):len(arena)])
	}
	runLen0 = planner.RunLen

	if runCount == 0 {
		// Whole input fit in internal memory: one run, written sorted
		// (and deduplicated, if requested) straight back to src.
		sortItems(run)
		if err := rewindTruncateTape(st.src); err != nil {
			return false, 0, 0, err
		}
		var prev []byte
		for i, it := range run {
			if dedup && i > 0 && Compare(it, prev) == 0 {
				continue
			}
			if err := WriteItem(st.src, it); err != nil {
				return false, 0, 0, err
			}
			prev = it
		}
		mem.Free(itemRegion("sort.runbuf"))
		return true, total, 0, st.src.Rewind()
	}
	if len(run) > 0 {
		if err := flush(); err != nil {
			return false, 0, 0, err
		}
	}
	mem.Free(itemRegion("sort.runbuf"))
	return false, total, runLen0, nil
}

func (st *refSortState) distribute(runLen, total int) (int, error) {
	if err := st.src.Rewind(); err != nil {
		return 0, err
	}
	active := st.k
	if total >= 0 {
		runs := (total + runLen - 1) / runLen
		active = min(st.k, runs)
		// Only the lanes that will receive runs are touched; idle
		// lanes cost no head reversals.
		for i := 0; i < active; i++ {
			if err := rewindTruncateTape(st.lanes[i]); err != nil {
				return 0, err
			}
		}
	}
	prepared := total >= 0
	var preparedLanes []bool
	if !prepared {
		preparedLanes = make([]bool, st.k)
	}
	moved := 0
	lane := 0
	for !st.src.AtEnd() {
		dst := st.lanes[lane]
		if !prepared && !preparedLanes[lane] {
			if err := rewindTruncateTape(dst); err != nil {
				return 0, err
			}
			preparedLanes[lane] = true
		}
		n, err := st.in.CopyItems(dst, runLen)
		if err != nil {
			return 0, err
		}
		moved += n
		lane = (lane + 1) % active
	}
	return moved, nil
}

func (st *refSortState) merge(runLen, active int, dedup bool) error {
	if err := st.src.Rewind(); err != nil {
		return err
	}
	st.src.Truncate()
	for i := 0; i < active; i++ {
		if err := st.lanes[i].Rewind(); err != nil {
			return err
		}
	}
	anyLeft := func() bool {
		for i := 0; i < active; i++ {
			if !st.lanes[i].AtEnd() {
				return true
			}
		}
		return false
	}
	for anyLeft() {
		if err := st.mergeGroup(runLen, active, dedup); err != nil {
			return err
		}
	}
	return nil
}

func (st *refSortState) mergeGroup(runLen, active int, dedup bool) error {
	items := make([][]byte, active) // each lane's item, aliasing its reader
	have := make([]bool, active)
	seen := make([]int, active)

	load := func(i int) error {
		if have[i] || seen[i] >= runLen || st.lanes[i].AtEnd() {
			return nil
		}
		item, ok, err := st.laneR[i].Next()
		if err != nil {
			return err
		}
		if ok {
			items[i], have[i] = item, true
			seen[i]++
		}
		return nil
	}

	var prev []byte // copied out: the lane's reader reuses its buffer
	havePrev := false
	prevReg := st.mem.Register(itemRegion("sort.dedupprev"))
	emit := func(i int) error {
		have[i] = false
		if dedup {
			if havePrev && Compare(items[i], prev) == 0 {
				return nil
			}
			prev = append(prev[:0], items[i]...)
			if err := prevReg.Set(int64(len(prev))); err != nil {
				return err
			}
			havePrev = true
		}
		return st.src.WriteBlock(st.laneR[i].Record())
	}

	// First round: fill every lane buffer in lane order, then build
	// the tree; afterwards only the winner's lane reloads and replays
	// its path.
	for i := 0; i < active; i++ {
		if err := load(i); err != nil {
			return err
		}
	}
	less := func(a, b int) bool {
		switch {
		case !have[a]:
			return false
		case !have[b]:
			return true
		}
		if c := Compare(items[a], items[b]); c != 0 {
			return c < 0
		}
		return a < b
	}
	st.tree.build(active, less)
	for {
		w := st.tree.winner()
		if !have[w] {
			return nil // every lane's run exhausted: group done
		}
		if err := emit(w); err != nil {
			return err
		}
		if err := load(w); err != nil {
			return err
		}
		st.tree.replay(w, less)
	}
}

func refDeciderSort(m *core.Machine, src int) error {
	return refSort(Sorter{FanIn: deciderFanIn, RunMemoryBits: DefaultRunMemoryBits},
		m, src, []int{tapeAuxA, tapeAuxB, tapeAuxC, tapeAuxD})
}

func refSplitHalves(m *core.Machine, dstV, dstW int) error {
	in := m.Tape(tapeInput)
	if err := in.Rewind(); err != nil {
		return err
	}
	total, err := CountItems(in, m.Mem(), "split.count")
	if err != nil {
		return err
	}
	if total%2 != 0 {
		return fmt.Errorf("algorithms: input has an odd number of items (%d)", total)
	}
	if err := in.Rewind(); err != nil {
		return err
	}
	tv := m.Tape(dstV)
	tw := m.Tape(dstW)
	if err := tv.Rewind(); err != nil {
		return err
	}
	tv.Truncate()
	if err := tw.Rewind(); err != nil {
		return err
	}
	tw.Truncate()
	rd := newRefItemReader(in, m.Mem(), itemRegion("split"))
	if _, err := rd.CopyItems(tv, total/2); err != nil {
		return err
	}
	_, err = rd.CopyItems(tw, total/2)
	return err
}

func refEqualItemStreams(m *core.Machine, ta, tb *tape.Tape) (bool, error) {
	mem := m.Mem()
	defer mem.Free(itemRegion("cmp.a"))
	defer mem.Free(itemRegion("cmp.b"))
	ra := newRefItemReader(ta, mem, itemRegion("cmp.a"))
	rb := newRefItemReader(tb, mem, itemRegion("cmp.b"))
	for {
		a, okA, err := ra.Next()
		if err != nil {
			return false, err
		}
		b, okB, err := rb.Next()
		if err != nil {
			return false, err
		}
		if okA != okB {
			return false, nil
		}
		if !okA {
			return true, nil
		}
		if Compare(a, b) != 0 {
			return false, nil
		}
	}
}

type refUniqueReader struct {
	rd       *refItemReader
	prev     []byte
	prevReg  *memory.Register
	havePrev bool
}

func (u *refUniqueReader) next() ([]byte, bool, error) {
	for {
		it, ok, err := u.rd.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if u.havePrev && Compare(it, u.prev) == 0 {
			continue
		}
		u.prev = append(u.prev[:0], it...)
		if err := u.prevReg.Set(int64(len(u.prev))); err != nil {
			return nil, false, err
		}
		u.havePrev = true
		return it, true, nil
	}
}

func refEqualUniqueItemStreams(m *core.Machine, ta, tb *tape.Tape) (bool, error) {
	mem := m.Mem()
	defer func() {
		for _, r := range []string{"uniq.a", "uniq.b", "uniq.preva", "uniq.prevb"} {
			mem.Free(itemRegion(r))
		}
	}()
	ua := refUniqueReader{rd: newRefItemReader(ta, mem, itemRegion("uniq.a")), prevReg: mem.Register(itemRegion("uniq.preva"))}
	ub := refUniqueReader{rd: newRefItemReader(tb, mem, itemRegion("uniq.b")), prevReg: mem.Register(itemRegion("uniq.prevb"))}
	for {
		a, okA, err := ua.next()
		if err != nil {
			return false, err
		}
		b, okB, err := ub.next()
		if err != nil {
			return false, err
		}
		if okA != okB {
			return false, nil
		}
		if !okA {
			return true, nil
		}
		if Compare(a, b) != 0 {
			return false, nil
		}
	}
}

func refMultisetEqualityST(m *core.Machine) (core.Verdict, error) {
	if err := refSplitHalves(m, tapeV, tapeW); err != nil {
		return core.Reject, err
	}
	if err := refDeciderSort(m, tapeV); err != nil {
		return core.Reject, err
	}
	if err := refDeciderSort(m, tapeW); err != nil {
		return core.Reject, err
	}
	if err := m.Tape(tapeV).Rewind(); err != nil {
		return core.Reject, err
	}
	if err := m.Tape(tapeW).Rewind(); err != nil {
		return core.Reject, err
	}
	eq, err := refEqualItemStreams(m, m.Tape(tapeV), m.Tape(tapeW))
	if err != nil {
		return core.Reject, err
	}
	return verdictOf(eq), nil
}

func refSetEqualityST(m *core.Machine) (core.Verdict, error) {
	if err := refSplitHalves(m, tapeV, tapeW); err != nil {
		return core.Reject, err
	}
	if err := refDeciderSort(m, tapeV); err != nil {
		return core.Reject, err
	}
	if err := refDeciderSort(m, tapeW); err != nil {
		return core.Reject, err
	}
	if err := m.Tape(tapeV).Rewind(); err != nil {
		return core.Reject, err
	}
	if err := m.Tape(tapeW).Rewind(); err != nil {
		return core.Reject, err
	}
	eq, err := refEqualUniqueItemStreams(m, m.Tape(tapeV), m.Tape(tapeW))
	if err != nil {
		return core.Reject, err
	}
	return verdictOf(eq), nil
}

func refCheckSortST(m *core.Machine) (core.Verdict, error) {
	if err := refSplitHalves(m, tapeV, tapeW); err != nil {
		return core.Reject, err
	}
	if err := refDeciderSort(m, tapeV); err != nil {
		return core.Reject, err
	}
	if err := m.Tape(tapeV).Rewind(); err != nil {
		return core.Reject, err
	}
	if err := m.Tape(tapeW).Rewind(); err != nil {
		return core.Reject, err
	}
	eq, err := refEqualItemStreams(m, m.Tape(tapeV), m.Tape(tapeW))
	if err != nil {
		return core.Reject, err
	}
	return verdictOf(eq), nil
}

func refDecideST(p int, m *core.Machine) (core.Verdict, error) {
	switch p {
	case 0:
		return refSetEqualityST(m)
	case 1:
		return refMultisetEqualityST(m)
	case 2:
		return refCheckSortST(m)
	default:
		return core.Reject, fmt.Errorf("algorithms: unknown problem %d", p)
	}
}

// sortOutcome is everything a run leaves behind.
type sortOutcome struct {
	Verdict core.Verdict
	Err     string
	Tapes   []string // every tape's contents
	Stats   []tape.Stats
	Current int64
	Peak    int64
	Regions string // every live region and its size, sorted
}

func captureOutcome(m *core.Machine, v core.Verdict, err error) sortOutcome {
	o := sortOutcome{Verdict: v, Err: fmt.Sprint(err)}
	for i := 0; i < m.NumTapes(); i++ {
		o.Tapes = append(o.Tapes, string(m.Tape(i).Contents()))
		o.Stats = append(o.Stats, m.Tape(i).Stats())
	}
	mem := m.Mem()
	var regions strings.Builder
	for _, name := range mem.Regions() {
		fmt.Fprintf(&regions, "%s=%d ", name, mem.Region(name))
	}
	o.Current, o.Peak, o.Regions = mem.Current(), mem.Peak(), regions.String()
	return o
}

// outcomeDiff names the first field in which two outcomes differ,
// without printing whole tapes.
func outcomeDiff(got, want sortOutcome) string {
	switch {
	case got.Verdict != want.Verdict:
		return fmt.Sprintf("verdict %v, reference %v", got.Verdict, want.Verdict)
	case got.Err != want.Err:
		return fmt.Sprintf("error %q, reference %q", got.Err, want.Err)
	case len(got.Tapes) != len(want.Tapes):
		return fmt.Sprintf("%d tapes, reference %d", len(got.Tapes), len(want.Tapes))
	}
	for i := range got.Tapes {
		if g, w := got.Tapes[i], want.Tapes[i]; g != w {
			j := 0
			for j < min(len(g), len(w)) && g[j] == w[j] {
				j++
			}
			return fmt.Sprintf("tape %d holds %d cells, reference %d, first differing at cell %d", i, len(g), len(w), j)
		}
		if got.Stats[i] != want.Stats[i] {
			return fmt.Sprintf("tape %d stats %+v, reference %+v", i, got.Stats[i], want.Stats[i])
		}
	}
	if got.Current != want.Current || got.Peak != want.Peak || got.Regions != want.Regions {
		return fmt.Sprintf("meter current/peak %d/%d regions %q, reference %d/%d regions %q",
			got.Current, got.Peak, got.Regions, want.Current, want.Peak, want.Regions)
	}
	return ""
}

// sortRun is one engine invocation on a fresh machine: the input on
// tape 0, sorted in place over work tapes 1..fan-in. A meter budget
// (mem >= 0) and a reversal budget on the lanes or on tape 0 (>= 0)
// make the run fail part-way.
type sortRun struct {
	input      []byte
	s          Sorter
	opts       tape.Options
	mem        int64 // meter budget; < 0: none
	laneBudget int   // reversal budget of every lane; < 0: none
	srcBudget  int   // reversal budget of tape 0; < 0: none
}

func (r sortRun) String() string {
	return fmt.Sprintf("%d-cell input, %+v, storage %q, meter budget %d, lane budget %d, source budget %d",
		len(r.input), r.s, r.opts.Storage, r.mem, r.laneBudget, r.srcBudget)
}

func (r sortRun) run(sort func(Sorter, *core.Machine, int, []int) error) sortOutcome {
	k := r.s.fanIn()
	m := core.NewMachineOpts(1+k, 1, r.opts)
	defer m.Close()
	m.SetInput(r.input)
	work := make([]int, k)
	for i := range work {
		work[i] = 1 + i
		if r.laneBudget >= 0 {
			m.Tape(1 + i).SetBudget(r.laneBudget)
		}
	}
	if r.srcBudget >= 0 {
		m.Tape(0).SetBudget(r.srcBudget)
	}
	if r.mem >= 0 {
		m.Mem().SetBudget(r.mem)
	}
	return captureOutcome(m, core.Reject, sort(r.s, m, 0, work))
}

func engineSort(s Sorter, m *core.Machine, src int, work []int) error { return s.Sort(m, src, work) }

// matchSortReference runs the engine and the reference on r and fails
// on any difference. It returns the reference's outcome.
func matchSortReference(t testing.TB, r sortRun) sortOutcome {
	t.Helper()
	got, want := r.run(engineSort), r.run(refSort)
	if d := outcomeDiff(got, want); d != "" {
		t.Fatalf("%v: %s", r, d)
	}
	return want
}

// matchSortBudgets runs r without a meter budget, then under every
// meter budget from peak-9 to peak+1, so refusals land on whichever
// charge reaches the peak: a merge lane's item, the dedup predecessor,
// or a formation run's last item, where the peak is the full run plus
// the next item.
func matchSortBudgets(t testing.TB, r sortRun) {
	t.Helper()
	r.mem = -1
	peak := matchSortReference(t, r).Peak
	for b := max(peak-9, 0); b <= peak+1; b++ {
		r.mem = b
		matchSortReference(t, r)
	}
}

// genSortInput returns '#'-terminated items of 40 to 100 symbols,
// about size cells in all. One item in dupEvery (when > 0) repeats an
// earlier one, and one in emptyEvery (when > 0) is empty.
func genSortInput(rng *rand.Rand, size, dupEvery, emptyEvery int) []byte {
	var out []byte
	var items [][]byte
	for len(out) < size {
		var it []byte
		switch {
		case emptyEvery > 0 && rng.Intn(emptyEvery) == 0:
		case dupEvery > 0 && len(items) > 0 && rng.Intn(dupEvery) == 0:
			it = items[rng.Intn(len(items))]
		default:
			it = make([]byte, 40+rng.Intn(61))
			for i := range it {
				it[i] = '0' + byte(rng.Intn(2))
			}
			items = append(items, it)
		}
		out = append(append(out, it...), problems.Separator)
	}
	return out
}

var refRunBudgets = []int64{0, 37, 256, 4096, 1 << 16}

// The engine, which reads items as window views, copies whole runs and
// writes each formed run in staged blocks, must leave every observable
// exactly as the per-item engine did: across fan-ins 2 to 8, every run
// budget with dedup on and off, meter budgets around the peak, reversal
// budgets that refuse a lane's or the source's turn, all three
// backends, and inputs whose items straddle the 64 KiB tape window.
// MergeTapes and the Corollary 7 deciders are held to their references
// the same way.
func TestSorterMatchesStepReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	big := genSortInput(rng, 160<<10+777, 4, 25) // > 2 windows; items straddle both boundaries
	small := genSortInput(rng, 5<<10, 3, 10)
	unterminated := append(bytes.Clone(big[:len(big)/2]), "0110"...)
	none := sortRun{mem: -1, laneBudget: -1, srcBudget: -1}

	t.Run("fan-in×run-budget×dedup", func(t *testing.T) {
		for k := 2; k <= 8; k++ {
			for _, rb := range refRunBudgets {
				for _, dedup := range []bool{false, true} {
					r := none
					r.input, r.s = big, Sorter{FanIn: k, RunMemoryBits: rb, Dedup: dedup}
					matchSortReference(t, r)
				}
			}
		}
	})
	t.Run("meter-budgets", func(t *testing.T) {
		for k := 2; k <= 8; k++ {
			for _, rb := range refRunBudgets {
				for _, dedup := range []bool{false, true} {
					r := none
					r.input, r.s = small, Sorter{FanIn: k, RunMemoryBits: rb, Dedup: dedup}
					matchSortBudgets(t, r)
				}
			}
		}
		for _, s := range []Sorter{{FanIn: 2, RunMemoryBits: 4096, Dedup: true}, {FanIn: 5, RunMemoryBits: 1 << 16}, {FanIn: 8, Dedup: true}} {
			r := none
			r.input, r.s = big, s
			matchSortBudgets(t, r)
		}
	})
	t.Run("reversal-budgets", func(t *testing.T) {
		for _, in := range [][]byte{small, big} {
			for _, s := range []Sorter{{FanIn: 2}, {FanIn: 3, RunMemoryBits: 256, Dedup: true}, {FanIn: 7, RunMemoryBits: 4096}} {
				for b := 0; b <= 3; b++ {
					r := none
					r.input, r.s, r.laneBudget = in, s, b
					matchSortReference(t, r)
					r.laneBudget, r.srcBudget = -1, b
					matchSortReference(t, r)
				}
			}
		}
	})
	t.Run("backends", func(t *testing.T) {
		o := tape.Options{Storage: tape.File, SpillDir: t.TempDir()}
		for i, s := range []Sorter{{FanIn: 2}, {FanIn: 4, RunMemoryBits: 4096, Dedup: true}, {FanIn: 8, RunMemoryBits: 1 << 16}, {FanIn: 3, RunMemoryBits: 37, Dedup: true}} {
			r := none
			r.input, r.s, r.opts = big, s, o
			matchSortReference(t, r)
			r.input, r.laneBudget = small, i%3
			matchSortReference(t, r)
		}
		r := none
		r.input, r.s, r.opts = small, Sorter{FanIn: 4, RunMemoryBits: 256, Dedup: true}, o
		matchSortBudgets(t, r)
	})
	t.Run("MergeTapes", testMergeTapesMatchesStepReference)
	t.Run("deciders", testDecidersMatchStepReference)
	t.Run("edge-inputs", func(t *testing.T) {
		edges := [][]byte{
			nil, []byte("#"), []byte("####"), []byte("0110"), []byte("1#0#1#0110"),
			unterminated, small[:len(small)-1],
		}
		for _, in := range edges {
			for k := 2; k <= 4; k++ {
				for _, rb := range refRunBudgets {
					r := none
					r.input, r.s = in, Sorter{FanIn: k, RunMemoryBits: rb, Dedup: rb%2 == 0}
					matchSortReference(t, r)
				}
			}
		}
	})
}

// mergeRun merges sorted item streams, one per source tape, onto tape
// 0 of a fresh machine.
func mergeRun(srcs [][]byte, dedup bool, mem int64, merge func(*core.Machine, int, []int, bool) error) sortOutcome {
	m := core.NewMachine(1+len(srcs), 1)
	defer m.Close()
	idx := make([]int, len(srcs))
	for i, s := range srcs {
		m.SetTape(1+i, s)
		idx[i] = 1 + i
	}
	if mem >= 0 {
		m.Mem().SetBudget(mem)
	}
	return captureOutcome(m, core.Reject, merge(m, 0, idx, dedup))
}

// testMergeTapesMatchesStepReference holds MergeTapes, the sharded
// sort's final stage, to the reference over one to eight sorted
// sources with dedup on and off, under meter budgets around its peak.
func testMergeTapesMatchesStepReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for k := 1; k <= 8; k++ {
		srcs := make([][]byte, k)
		for i := range srcs {
			// '#' sorts below every symbol, so records sort as their items do.
			size := []int{0, 300, 3 << 10, 70 << 10}[rng.Intn(4)]
			recs := strings.SplitAfter(string(genSortInput(rng, size, 3, 8)), "#")
			recs = recs[:len(recs)-1]
			sort.Strings(recs)
			srcs[i] = []byte(strings.Join(recs, ""))
		}
		for _, dedup := range []bool{false, true} {
			want := mergeRun(srcs, dedup, -1, refMergeTapes)
			if d := outcomeDiff(mergeRun(srcs, dedup, -1, MergeTapes), want); d != "" {
				t.Fatalf("%d sources, dedup %v: %s", k, dedup, d)
			}
			for b := max(want.Peak-9, 0); b <= want.Peak+1; b++ {
				g, w := mergeRun(srcs, dedup, b, MergeTapes), mergeRun(srcs, dedup, b, refMergeTapes)
				if d := outcomeDiff(g, w); d != "" {
					t.Fatalf("%d sources, dedup %v, meter budget %d: %s", k, dedup, b, d)
				}
			}
		}
	}
}

// decideRun runs a Corollary 7 decider on a fresh machine.
func decideRun(p int, input []byte, mem int64, decide func(int, *core.Machine) (core.Verdict, error)) (sortOutcome, core.Resources) {
	m := core.NewMachine(NumDeciderTapes, 1)
	defer m.Close()
	m.SetInput(input)
	if mem >= 0 {
		m.Mem().SetBudget(mem)
	}
	v, err := decide(p, m)
	return captureOutcome(m, v, err), m.Resources()
}

// testDecidersMatchStepReference requires the three Corollary 7
// deciders to report the reference's verdicts, errors and Resources on
// yes and no instances, on items that straddle the tape window, on an
// odd item count, and under meter budgets.
func testDecidersMatchStepReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inputs := [][]byte{
		genSortInput(rng, 140<<10, 2, 30),
		genSortInput(rng, 3<<10, 2, 10),
		[]byte("01#10#10#"),
	}
	for p := 0; p < 3; p++ {
		for _, yes := range []bool{true, false} {
			inputs = append(inputs, problems.Gen(problems.Problem(p), yes, 200, 60, rng).Encode())
		}
	}
	for p := 0; p < 3; p++ {
		for i, in := range inputs {
			want, wantRes := decideRun(p, in, -1, refDecideST)
			got, gotRes := decideRun(p, in, -1, DecideST)
			if d := outcomeDiff(got, want); d != "" || !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("problem %d, input %d: %s; resources %+v, reference %+v", p, i, d, gotRes, wantRes)
			}
			if len(in) > 64<<10 {
				continue
			}
			for b := max(want.Peak-9, 0); b <= want.Peak+1; b++ {
				want, wantRes := decideRun(p, in, b, refDecideST)
				got, gotRes := decideRun(p, in, b, DecideST)
				if d := outcomeDiff(got, want); d != "" || !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("problem %d, input %d, meter budget %d: %s; resources %+v, reference %+v", p, i, b, d, gotRes, wantRes)
				}
			}
		}
	}
}

// FuzzSorterKernel runs TestSorterMatchesStepReference's comparison on
// fuzzed inputs and shapes: symbols '0', '1' and '#' drawn from data,
// fan-in 2 to 8, a run budget, dedup, a backend, a reversal budget on
// the lanes or the source, and a meter budget near the peak.
func FuzzSorterKernel(f *testing.F) {
	f.Add([]byte("0110#01#1#0110#"), uint8(0), uint16(4), uint8(1), int8(0))
	f.Add([]byte("##1#0#1###00110#"), uint8(3), uint16(0), uint8(0), int8(-3))
	f.Add(bytes.Repeat([]byte("0110#1#"), 40), uint8(6), uint16(37), uint8(0x0b), int8(-1))
	f.Add([]byte("1#0#11#0"), uint8(1), uint16(256), uint8(0x12), int8(1))
	f.Fuzz(func(t *testing.T, data []byte, fan uint8, run uint16, flags uint8, slack int8) {
		input := make([]byte, len(data))
		for i, b := range data {
			input[i] = "01#"[b%3]
		}
		r := sortRun{
			input:      input,
			s:          Sorter{FanIn: 2 + int(fan%7), RunMemoryBits: int64(run % 4099), Dedup: flags&1 != 0},
			mem:        -1,
			laneBudget: -1,
			srcBudget:  -1,
		}
		if flags&2 != 0 {
			r.opts = tape.Options{Storage: tape.File, SpillDir: t.TempDir()}
		}
		switch b := int(flags>>3) % 4; (flags >> 5) % 3 {
		case 1:
			r.laneBudget = b
		case 2:
			r.srcBudget = b
		}
		if slack != 0 {
			peak := r.run(refSort).Peak
			r.mem = max(peak+int64(slack%10), 0)
		}
		matchSortReference(t, r)
	})
}
