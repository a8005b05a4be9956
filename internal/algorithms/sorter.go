package algorithms

// sorter.go implements the configurable k-way external merge-sort
// engine behind Corollary 7. The classic 2-way balanced tape merge
// spends ⌈log₂ m⌉ passes with one buffered item per side; the paper's
// ST(r, s, t) model is exactly about trading head reversals r against
// internal memory s and tapes t, and the engine exposes both levers:
//
//   - Run formation (the s lever): an internal-memory buffer of
//     RunMemoryBits, charged to the machine's meter, turns the input
//     into sorted initial runs of ⌊s/itemBits⌋ items instead of
//     single-item runs, eliminating the first ~log₂(runLen) merge
//     passes outright.
//   - Fan-in (the t lever): every merge pass routes k = FanIn runs at
//     a time through a tournament (loser) tree over k work tapes, so
//     ⌈log_k⌉ passes replace ⌈log₂⌉.
//
// The item count is taken during the engine's first sweep (formation
// counts as it buffers; a zero-memory engine counts during its first
// distribution), so no pass only counts, and an optional dedup hook
// drops adjacent duplicates while the final pass is being written, so
// set-semantics callers need no extra scan + copy-back.
//
// All internal-memory state — the run buffer, one buffered item per
// merge lane, the loser tree's nodes, the pass counter and the dedup
// predecessor — is charged to the meter, so Resources reports the real
// (r, s, t) trade-off: measured reversals fall as RunMemoryBits and
// FanIn grow, and peak memory rises accordingly (experiment E17 tables
// the frontier; sort_test.go asserts the monotonicity).

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"extmem/internal/core"
	"extmem/internal/memory"
	"extmem/internal/problems"
	"extmem/internal/tape"
)

// RunPlanner is the engine's fixed-count initial-run rule as a
// standalone state machine: the first run is filled greedily until
// the next item would exceed Budget, and its item count becomes the
// fixed per-run count for the rest of the input. The Sorter's run
// formation and the sharded sort's run partitioning
// (internal/shard.Sort) both step this planner, so the two can never
// disagree about where run boundaries fall.
type RunPlanner struct {
	Budget int64 // run-formation memory budget in meter bits; <= 0 means single-item runs
	RunLen int   // fixed per-run item count; 0 while the first run still fills

	items int   // items in the current run
	bits  int64 // meter bits buffered in the current run
	total int   // items seen overall
}

// Next reports whether the next item (of the given meter size) starts
// a new run, and advances the plan. The first item always does.
func (p *RunPlanner) Next(itemBits int64) bool {
	if p.Budget <= 0 && p.RunLen == 0 {
		p.RunLen = 1 // no formation memory: single-item runs
	}
	newRun := p.total == 0
	if p.RunLen == 0 {
		if p.items > 0 && p.bits+itemBits > p.Budget {
			p.RunLen = p.items
			newRun = true
		}
	} else if p.items >= p.RunLen {
		newRun = true
	}
	if newRun {
		p.items, p.bits = 0, 0
	}
	p.items++
	p.bits += itemBits
	p.total++
	return newRun
}

// DefaultRunMemoryBits is the run-formation budget used by the
// rewired consumers (the equality deciders, relalg's sortDedup, the
// Las Vegas sorter). It is a constant — independent of the input size
// N — so every ST(·, O(1), O(1)) classification built on the sort is
// unchanged; it is merely a bigger constant than the two item buffers
// of a plain 2-way merge, bought back as ~log₂(runLen) fewer passes.
const DefaultRunMemoryBits = 4096

// Sorter is the configurable k-way external merge-sort engine. The
// zero value is the 2-way balanced tape merge with single-item initial
// runs: ⌈log₂ m⌉ passes, O(log N) reversals, two item buffers.
type Sorter struct {
	// FanIn is the number of runs merged per pass (and the number of
	// work tapes used); values below 2 mean 2.
	FanIn int

	// RunMemoryBits is the internal-memory target for initial run
	// formation, in the meter's units (one unit per buffered tape
	// symbol). 0 disables formation: initial runs are single items.
	// The first run is filled greedily up to the target and its item
	// count fixes the per-run item count for the whole sort, so with
	// uniform-length items every run fills the budget exactly; with
	// variable-length items the fixed-count structure is kept and the
	// actual buffer size is charged honestly.
	RunMemoryBits int64

	// Dedup drops adjacent duplicate items while the final sorted
	// output is being written (set semantics), folding the separate
	// dedup scan + copy-back into the last merge pass.
	Dedup bool
}

func (s Sorter) fanIn() int {
	if s.FanIn < 2 {
		return 2
	}
	return s.FanIn
}

// WorkTapes returns the machine's tape indices excluding tape 0 (the
// input) and dst — the merge lanes available to a Sorter when sorting
// onto dst, giving fan-in t−2.
func WorkTapes(m *core.Machine, dst int) []int {
	var work []int
	for i := 1; i < m.NumTapes(); i++ {
		if i != dst {
			work = append(work, i)
		}
	}
	return work
}

// SortToTape copies the machine's input tape (tape 0) onto dst in one
// scan and sorts dst with the engine, leaving the input intact — the
// Corollary 10 sorting problem as a function computation.
func (s Sorter) SortToTape(m *core.Machine, dst int, work []int) error {
	if dst == 0 {
		return fmt.Errorf("algorithms: Sorter cannot sort onto the input tape")
	}
	in := m.Tape(0)
	td := m.Tape(dst)
	if err := in.Rewind(); err != nil {
		return err
	}
	if err := td.Rewind(); err != nil {
		return err
	}
	td.Truncate()
	if err := CopyTape(in, td); err != nil {
		return err
	}
	return s.Sort(m, dst, work)
}

// MergeTapes k-way merges the sorted '#'-terminated item sequences on
// the src tapes onto dst through the loser tree, optionally dropping
// adjacent duplicates while writing (set semantics). Each src is read
// in one forward scan and dst is truncated and written in one forward
// sweep, so the pass costs one scan per tape. The lane buffers (one
// item per src) and, for more than two lanes, the tree's internal
// nodes are charged to the meter — the same accounting as a Sorter
// merge pass. It is the final fan-in stage of the sharded sort
// (internal/shard): per-shard sorted outputs arrive on dedicated tapes
// and leave as one globally sorted sequence.
func MergeTapes(m *core.Machine, dst int, srcs []int, dedup bool) error {
	if len(srcs) == 0 {
		return rewindTruncateTape(m.Tape(dst))
	}
	seen := map[int]bool{dst: true}
	for _, s := range srcs {
		if seen[s] {
			return fmt.Errorf("algorithms: MergeTapes needs distinct tapes, got dst %d and srcs %v", dst, srcs)
		}
		seen[s] = true
	}
	lanes := make([]*tape.Tape, len(srcs))
	for i, s := range srcs {
		lanes[i] = m.Tape(s)
	}
	st := newSortState(m, m.Tape(dst), lanes)
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

// Sort sorts the '#'-terminated items on tape src in ascending order,
// in place, merging FanIn runs per pass over the given work tapes (at
// least FanIn of them; extras are ignored). Total head reversals are
// O(log_k(m/runLen)) passes × O(k) reversals, with all buffers charged
// to the machine's meter.
func (s Sorter) Sort(m *core.Machine, src int, work []int) error {
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
	st := newSortState(m, m.Tape(src), lanes)
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

// sortState carries one engine invocation.
type sortState struct {
	m     *core.Machine
	mem   *memory.Meter
	src   *tape.Tape
	in    *ItemReader // src's items: formation reads and distribution copies
	lanes []*tape.Tape
	laneR []*ItemReader // one reader per lane, its item charged to sort.run<i>
	k     int
	tree  *loserTree
}

func newSortState(m *core.Machine, src *tape.Tape, lanes []*tape.Tape) *sortState {
	mem := m.Mem()
	k := len(lanes)
	st := &sortState{
		m:     m,
		mem:   mem,
		src:   src,
		in:    NewItemReader(src, mem, itemRegion("sort.form")),
		lanes: lanes,
		laneR: make([]*ItemReader, k),
		k:     k,
	}
	for i, lane := range lanes {
		st.laneR[i] = NewItemReader(lane, mem, itemRegion(fmt.Sprintf("sort.run%d", i)))
	}
	return st
}

func (st *sortState) freeRegions() {
	mem := st.mem
	mem.Free(counterRegion("sort.runlen"))
	mem.Free(counterRegion("sort.tree"))
	mem.Free(itemRegion("sort.runbuf"))
	mem.Free(itemRegion("sort.dedupprev"))
	for _, rd := range st.laneR {
		mem.Free(rd.region)
	}
}

// formRuns is the run-formation pass: it reads src once, buffering
// items in internal memory up to the budget, and writes sorted runs
// round-robin onto the lanes, counting items as it goes. If the whole
// input fits in one run, the sorted (and optionally deduplicated) run
// is written straight back to src and done is true.
func (st *sortState) formRuns(budget int64, dedup bool) (done bool, total, runLen0 int, err error) {
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
		stage    []byte   // the sorted run's records, written one fill at a time
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
		if err := writeRun(lane, run, false, &stage); err != nil {
			return err
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
		// The item is a view valid until the next read, so it is copied out.
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
		if err := writeRun(st.src, run, dedup, &stage); err != nil {
			return false, 0, 0, err
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

// distribute copies runs of runLen items from src round-robin onto the
// lanes. total < 0 means the item count is still unknown: lanes are
// prepared lazily and the copied items are counted, so the sort needs
// no separate counting pass. The returned count is the number of items
// moved.
func (st *sortState) distribute(runLen, total int) (int, error) {
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

// merge is one merge pass: groups of up to one run per active lane are
// routed through the loser tree onto src, k·runLen items per output
// run. When dedup is set (final pass only), adjacent duplicates are
// dropped as the output is written.
func (st *sortState) merge(runLen, active int, dedup bool) error {
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

// mergeGroup merges one run (up to runLen items) from each of the
// active lanes onto src via the loser tree, preferring the lowest lane
// index on ties.
func (st *sortState) mergeGroup(runLen, active int, dedup bool) error {
	items := make([][]byte, active) // each lane's item, a view valid until that lane's next read
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

	var prev []byte // copied out: the lane's item is a view
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

// runStageCells caps the staging buffer writeRun fills: a 1 GiB sort
// forms runs of several MiB, and staging a whole one would double the
// run buffer in RAM.
const runStageCells = 64 << 10

// writeRun writes a sorted run's items to tp, each followed by the
// separator, dropping adjacent duplicates when dedup is set. The
// records are staged in *stage, reused across runs, and leave in one
// WriteBlock per fill of at most runStageCells cells; an item too large
// for the stage leaves on its own. WriteBlock(a) then WriteBlock(b) is
// accounted exactly as WriteBlock(a+b), and a refused turn writes the
// first cell either way, so this is counted exactly as one WriteItem
// per item.
func writeRun(tp *tape.Tape, run [][]byte, dedup bool, stage *[]byte) error {
	buf := (*stage)[:0]
	for i, it := range run {
		if dedup && i > 0 && Compare(it, run[i-1]) == 0 {
			continue
		}
		if len(buf)+len(it)+1 > runStageCells {
			if err := tp.WriteBlock(buf); err != nil {
				return err
			}
			buf = buf[:0]
			if len(it)+1 > runStageCells {
				if err := WriteItem(tp, it); err != nil {
					return err
				}
				continue
			}
		}
		buf = append(buf, it...)
		buf = append(buf, problems.Separator)
	}
	*stage = buf[:0]
	return tp.WriteBlock(buf)
}

// sortItems sorts a run buffer in internal memory (free in the ST
// model: only the buffer's size is charged, via the meter).
func sortItems(run [][]byte) { slices.SortFunc(run, bytes.Compare) }

func rewindTruncateTape(t *tape.Tape) error {
	if err := t.Rewind(); err != nil {
		return err
	}
	t.Truncate()
	return nil
}

// bitsFor returns the number of bits needed to store a lane index
// below k.
func bitsFor(k int) int {
	b := 1
	for 1<<b < k {
		b++
	}
	return b
}

// loserTree is a tournament tree over up to k lanes: node[0] holds the
// overall winner, the internal nodes hold the losers of their matches.
// Selecting the next item after a replacement costs ⌈log₂ k⌉ lane
// comparisons instead of k−1.
type loserTree struct {
	size int   // number of competing lanes in this build
	node []int // 1-based heap layout; node[0] = winner
}

func newLoserTree(k int) *loserTree {
	return &loserTree{node: make([]int, k)}
}

// build plays the full tournament over lanes 0..active-1.
func (t *loserTree) build(active int, less func(a, b int) bool) {
	t.size = active
	if active == 1 {
		t.node[0] = 0
		return
	}
	for i := range t.node {
		t.node[i] = -1
	}
	for lane := 0; lane < active; lane++ {
		t.play(lane, less)
	}
}

// replay re-runs lane's path to the root after its item was replaced.
func (t *loserTree) replay(lane int, less func(a, b int) bool) {
	if t.size <= 1 {
		return
	}
	t.play(lane, less)
}

func (t *loserTree) winner() int { return t.node[0] }

// play pushes lane from its leaf toward the root, swapping with stored
// losers it beats; the survivor lands in node[0].
func (t *loserTree) play(lane int, less func(a, b int) bool) {
	w := lane
	for i := (lane + t.size) / 2; i >= 1; i /= 2 {
		if t.node[i] == -1 {
			// First visit to this match: park here and stop; the
			// opponent will pick the duel up when it arrives.
			t.node[i] = w
			return
		}
		if less(t.node[i], w) {
			w, t.node[i] = t.node[i], w
		}
		if i == 1 {
			break
		}
	}
	t.node[0] = w
}
