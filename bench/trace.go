package main

// trace.go is the traced run's instrumentation. It measures the layers
// from outside: spans around the calls the benchmark makes, wrappers on
// the seams the stack already exposes (shard.Sort.Exec,
// relalg.Evaluator.Exec/ExecScan, shard.Fleet.Attempt and the per-row
// sink it drives, tape.Options.Wrap), and counters at the same
// boundaries. Spans stay in memory and are written as JSONL at exit.

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extmem/internal/core"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/tape"
	"extmem/internal/trials"
)

// span is one timed interval of a traced job. Times are nanoseconds
// since the tracer started; Parent 0 marks the job's root span.
type span struct {
	Job    int              `json:"job"`
	ID     int              `json:"span"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the part of s that none of the children cover: its
// duration minus the union of the children's intervals clipped to s.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	covered, reach := int64(0), s.Start
	for _, in := range iv {
		lo := max(in[0], reach)
		if in[1] > lo {
			covered += in[1] - lo
			reach = in[1]
		}
	}
	return s.dur() - covered
}

// tracer records the spans and counters of traced jobs. Jobs run one at
// a time, but shard attempts inside a job run concurrently, so span and
// counter updates are synchronized.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	first int // index in spans of the current job's root span
	scope int // the span new attempt spans belong to
	notes map[string][]float64

	// Tape backend counters, added to as backends close.
	tapeCalls, tapeBytes, tapeSampled, tapeSampledNs atomic.Int64

	backends atomic.Int64  // backends wrapped so far; seeds their samplers
	clock    time.Duration // what timing an empty interval reads

	// samples holds one value per traced job and per-layer metric.
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: map[string][]float64{}, clock: clockCost()}
}

// clockCost is the mean duration an empty timed interval reads: the
// cost of reading the clock, which a timed call of a few nanoseconds
// would otherwise mostly consist of.
func clockCost() time.Duration {
	const n = 1 << 16
	var sum time.Duration
	for i := 0; i < n; i++ {
		s := time.Now()
		sum += time.Since(s)
	}
	return sum / n
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span in the current scope and returns its id.
func (t *tracer) begin(name string, attrs map[string]int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	job := t.spans[t.first].Job
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Job: job, ID: id, Parent: t.scope, Name: name, Start: t.now(), Attrs: attrs})
	return id
}

// enter opens a span that becomes the scope of the spans begun until
// the matching leave.
func (t *tracer) enter(name string) int {
	id := t.begin(name, nil)
	t.mu.Lock()
	t.scope = id
	t.mu.Unlock()
	return id
}

func (t *tracer) leave(id int) {
	t.end(id, nil)
	t.mu.Lock()
	t.scope = t.spans[id-1].Parent
	t.mu.Unlock()
}

// end closes span id, adding attrs.
func (t *tracer) end(id int, attrs map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	if len(attrs) > 0 && s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	for k, v := range attrs {
		s.Attrs[k] = v
	}
}

// note records a per-layer value the workload itself observed in the
// current job (a census from a report, a replayed planner decision). A
// metric noted several times in one job contributes their median.
func (t *tracer) note(name string, v float64) {
	t.mu.Lock()
	t.notes[name] = append(t.notes[name], v)
	t.mu.Unlock()
}

// startJob opens the root span of traced job i and zeroes the counters.
func (t *tracer) startJob(i int) {
	t.tapeCalls.Store(0)
	t.tapeBytes.Store(0)
	t.tapeSampled.Store(0)
	t.tapeSampledNs.Store(0)
	t.mu.Lock()
	t.first = len(t.spans)
	t.scope = t.first + 1
	t.spans = append(t.spans, span{Job: i, ID: t.scope, Name: "job", Start: t.now()})
	t.notes = map[string][]float64{}
	t.mu.Unlock()
}

// finishJob closes the root span and turns the job's spans, counters and
// notes into one sample per per-layer metric that applies to it.
func (t *tracer) finishJob(res jobResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := &t.spans[t.first]
	root.End = t.now()
	busyDur, calls, moved := t.tapeTotals()
	busy := int64(busyDur)
	if calls > 0 {
		root.Attrs = map[string]int64{"tape_busy_ns": busy, "tape_calls": calls, "tape_bytes": moved}
	}
	job := *root
	var attempts, transported []span
	var query *span
	for _, s := range t.spans[t.first+1:] {
		switch {
		case strings.HasPrefix(s.Name, "attempt."):
			attempts = append(attempts, s)
			if s.Attrs["transport"] == 1 {
				transported = append(transported, s)
			}
		case s.Name == "query":
			q := s
			query = &q
		}
	}

	add := func(name string, v float64) { t.samples[name] = append(t.samples[name], v) }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 } // spans hold nanoseconds
	if calls > 0 {
		add("tape.busy_ms", ms(busy))
		add("tape.calls", float64(calls))
		add("tape.io_mb", float64(moved)/1e6)
		add("tape.io_per_input_byte", float64(moved)/float64(res.bytes))
		if len(attempts) == 0 {
			// A single-machine job: everything that is not tape I/O is
			// the algorithm's own work.
			add("algorithms.self_ms", ms(job.dur()-busy))
		}
	}
	if res.critSteps > 0 {
		add("algorithms.ns_per_step", float64(job.dur())/float64(res.critSteps))
	}
	if len(attempts) > 0 {
		durs := make([]float64, len(attempts))
		var sum, maxDur float64
		var payload int64
		ok := 0
		for i, a := range attempts {
			durs[i] = ms(a.dur())
			sum += durs[i]
			maxDur = max(maxDur, durs[i])
			payload += a.Attrs["payload_bytes"]
			ok += int(a.Attrs["ok"])
		}
		add("shard.attempt_ms", median(durs))
		add("shard.attempt_ms_max", maxDur)
		add("shard.skew", maxDur/(sum/float64(len(durs))))
		add("shard.coordinator_ms", ms(selfTime(job, attempts)))
		add("shard.payload_mb", float64(payload)/1e6)
		add("shard.attempts", float64(len(attempts)))
		add("shard.useful_attempt_frac", float64(ok)/float64(len(attempts)))
		retries := 0
		for _, a := range attempts {
			if a.Attrs["attempt"] == 1 {
				continue
			}
			retries++
			if prev, found := previousAttempt(attempts, a); found {
				add("shard.backoff_ms", ms(a.Start-prev.End))
			}
		}
		add("shard.retries", float64(retries))
	}
	if len(transported) > 0 {
		var durs, firsts []float64
		var sum, cpu int64
		for _, a := range transported {
			durs = append(durs, ms(a.dur()))
			sum += a.dur()
			cpu += a.Attrs["worker_cpu_ns"]
			if f, ok := a.Attrs["first_row_ns"]; ok {
				firsts = append(firsts, ms(f))
			}
		}
		n := int64(len(transported))
		add("transport.attempt_ms", median(durs))
		add("transport.worker_cpu_ms", ms(cpu/n))
		add("transport.wait_ms", ms((sum-cpu)/n))
		if len(firsts) > 0 {
			add("transport.first_row_ms", median(firsts))
		}
	}
	if query != nil {
		add("relalg.self_ms", ms(selfTime(*query, attempts)))
	}
	for name, vs := range t.notes {
		add(name, median(vs))
	}
}

// previousAttempt finds the failed attempt a retried: the latest attempt
// of the same kind and shard, one number lower, that ended before a began.
func previousAttempt(attempts []span, a span) (span, bool) {
	var prev span
	found := false
	for _, p := range attempts {
		if p.Name == a.Name && p.Attrs["shard"] == a.Attrs["shard"] &&
			p.Attrs["attempt"] == a.Attrs["attempt"]-1 && p.End <= a.Start && (!found || p.End > prev.End) {
			prev, found = p, true
		}
	}
	return prev, found
}

// writeJSONL writes every recorded span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tapeWrap returns the tape.Options.Wrap that counts every data call
// into a tape backend and the bytes it moves, and times a sample of them.
func (t *tracer) tapeWrap() tape.WrapBackend {
	return func(be tape.Backend) tape.Backend {
		return &countingBackend{Backend: be, t: t, rng: uint64(t.backends.Add(1)) * 0x9E3779B97F4A7C15}
	}
}

// tapeTotals returns the data calls and bytes of every tape backend
// closed since the job started, and their estimated busy time: the
// number of calls times the timed sample's mean call time, less the
// clock's own cost.
func (t *tracer) tapeTotals() (busy time.Duration, calls, moved int64) {
	calls, moved = t.tapeCalls.Load(), t.tapeBytes.Load()
	if n := t.tapeSampled.Load(); n > 0 {
		perCall := max(float64(t.tapeSampledNs.Load())/float64(n)-float64(t.clock), 0)
		busy = time.Duration(perCall * float64(calls))
	}
	return busy, calls, moved
}

// countingBackend forwards to a tape backend, counting each data call
// and the bytes it moves. Timing every call would cost several times
// the calls themselves, so one call in 16, picked at random so that no
// periodic call pattern biases the sample, is timed. A backend is used
// by one goroutine at a time, so the counters are plain; Close adds them
// to the tracer's. Len, Kind and Close are bookkeeping, not counted.
type countingBackend struct {
	tape.Backend
	t                               *tracer
	calls, moved, sampled, sampleNs int64
	rng                             uint64
}

// call counts a call moving n bytes and reports whether to time it.
func (b *countingBackend) call(n int) (time.Time, bool) {
	b.calls++
	b.moved += int64(n)
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	if b.rng&15 != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (b *countingBackend) done(start time.Time, timed bool) {
	if timed {
		b.sampleNs += int64(time.Since(start))
		b.sampled++
	}
}

func (b *countingBackend) Cell(i int) byte {
	s, timed := b.call(1)
	c := b.Backend.Cell(i)
	b.done(s, timed)
	return c
}

func (b *countingBackend) SetCell(i int, c byte) {
	s, timed := b.call(1)
	b.Backend.SetCell(i, c)
	b.done(s, timed)
}

func (b *countingBackend) ReadAt(dst []byte, off int) {
	s, timed := b.call(len(dst))
	b.Backend.ReadAt(dst, off)
	b.done(s, timed)
}

func (b *countingBackend) WriteAt(src []byte, off int) {
	s, timed := b.call(len(src))
	b.Backend.WriteAt(src, off)
	b.done(s, timed)
}

func (b *countingBackend) IndexByte(delim byte, off int) int {
	s, timed := b.call(0)
	i := b.Backend.IndexByte(delim, off)
	b.done(s, timed)
	return i
}

func (b *countingBackend) Grow(n int) {
	s, timed := b.call(0)
	b.Backend.Grow(n)
	b.done(s, timed)
}

func (b *countingBackend) Truncate(n int) {
	s, timed := b.call(0)
	b.Backend.Truncate(n)
	b.done(s, timed)
}

func (b *countingBackend) Reset() {
	s, timed := b.call(0)
	b.Backend.Reset()
	b.done(s, timed)
}

func (b *countingBackend) Close() error {
	b.t.tapeCalls.Add(b.calls)
	b.t.tapeBytes.Add(b.moved)
	b.t.tapeSampled.Add(b.sampled)
	b.t.tapeSampledNs.Add(b.sampleNs)
	b.calls, b.moved, b.sampled, b.sampleNs = 0, 0, 0, 0
	return b.Backend.Close()
}

// cpuProbe starts measuring the CPU a transport worker spends on one
// shard attempt; the returned function reports it once the attempt ends.
type cpuProbe func(shard, attempt int) func() time.Duration

// attempt runs one shard attempt inside a span named attempt.<kind>.
func (t *tracer) attempt(kind string, sh, att int, payload int, probe cpuProbe, run func() error) error {
	id := t.begin("attempt."+kind, map[string]int64{
		"shard": int64(sh), "attempt": int64(att), "payload_bytes": int64(payload)})
	var stop func() time.Duration
	if probe != nil {
		stop = probe(sh, att)
	}
	err := run()
	attrs := map[string]int64{"ok": boolInt(err == nil)}
	if stop != nil {
		attrs["transport"] = 1
		attrs["worker_cpu_ns"] = int64(stop())
	}
	t.end(id, attrs)
	return err
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sortExec wraps a shard.Sort.Exec seam; a nil inner is the in-process
// default, job.Execute().
func (t *tracer) sortExec(inner shard.ExecFunc, probe cpuProbe) shard.ExecFunc {
	return func(ctx context.Context, sh, att int, job shard.SortJob) (out []byte, res core.Resources, err error) {
		err = t.attempt("sort", sh, att, len(job.Payload), probe, func() error {
			if inner == nil {
				out, res, err = job.Execute()
			} else {
				out, res, err = inner(ctx, sh, att, job)
			}
			return err
		})
		return out, res, err
	}
}

// scanExec wraps a relalg.Evaluator.ExecScan seam.
func (t *tracer) scanExec(inner relalg.ScanExecFunc, probe cpuProbe) relalg.ScanExecFunc {
	return func(ctx context.Context, sh, att int, job relalg.ScanJob) (out []byte, res core.Resources, err error) {
		err = t.attempt("scan", sh, att, len(job.Left)+len(job.Right), probe, func() error {
			out, res, err = inner(ctx, sh, att, job)
			return err
		})
		return out, res, err
	}
}

// fleetAttempt wraps a shard.Fleet.Attempt seam: the attempt span
// carries the CPU time of the worker processes the attempt spawned, the
// time to its first streamed row, and the gaps between rows.
func (t *tracer) fleetAttempt(inner shard.AttemptFunc, payload int) shard.AttemptFunc {
	return func(ctx context.Context, sh, att int, eng trials.Engine, fn trials.Func) ([]trials.Result, error) {
		id := t.begin("attempt.trial", map[string]int64{
			"shard": int64(sh), "attempt": int64(att), "payload_bytes": int64(payload)})
		start := time.Now()
		var last time.Time
		var firstRow int64 = -1
		var gaps []float64
		sink := eng.OnResult
		// The transport calls the sink from this attempt's goroutine only.
		eng.OnResult = func(r trials.Result) {
			now := time.Now()
			if firstRow < 0 {
				firstRow = now.Sub(start).Nanoseconds()
			} else {
				gaps = append(gaps, float64(now.Sub(last).Microseconds()))
			}
			last = now
			if sink != nil {
				sink(r)
			}
		}
		log := &childLog{}
		rs, err := inner(context.WithValue(ctx, attemptLogKey{}, log), sh, att, eng, fn)
		cpu, _ := log.drain()
		attrs := map[string]int64{"ok": boolInt(err == nil), "transport": 1,
			"worker_cpu_ns": int64(cpu), "rows": int64(len(gaps)) + boolInt(firstRow >= 0)}
		if firstRow >= 0 {
			attrs["first_row_ns"] = firstRow
		}
		t.end(id, attrs)
		for _, g := range gaps {
			t.note("trials.row_gap_us", g)
		}
		return rs, err
	}
}
