package main

// workloads.go defines the four workloads. Each set-up derives its
// inputs and their reference answers from the seed; each job runs one
// call into the stack and checks its output against the reference.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"time"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/plan"
	"extmem/internal/problems"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/tape"
	"extmem/internal/transport"
	"extmem/internal/trials"
)

// itemBits is the length of every generated 0-1 item; with its '#'
// terminator an item takes 32 bytes, and an m×n instance N = 64·m bytes.
const itemBits = 31

// workload is one benchmark workload: a name and a set-up that builds
// its runner from the configuration.
type workload struct {
	name  string
	size  int // default input bytes of one job
	setup func(ctx context.Context, cfg config) (runner, error)
}

// runner executes the jobs of a set-up workload.
type runner interface {
	// job runs job i; tr is nil for an untraced job. A returned error
	// means the job failed or its output did not match the reference.
	job(ctx context.Context, i int, tr *tracer) (jobResult, error)
	// workers reports the total CPU time and peak RSS, so far, of the
	// processes other than this one that run the workload's jobs.
	workers() (cpu time.Duration, rss int64, err error)
	// close stops every process the runner started and waits for each.
	close()
}

// jobResult is what one job processed and what it cost in the ST model.
type jobResult struct {
	bytes     int64 // input bytes processed (throughput counts them)
	critSteps int64 // head steps along the job's critical path
	cost      modelCost
}

// modelCost is a job's cost in the paper's model: scans along the
// critical path, head steps per input byte, and the largest internal
// memory any machine of the job used (the paper's s).
type modelCost struct {
	scans        int
	stepsPerByte float64
	memBits      int64
}

func (c modelCost) max(o modelCost) modelCost {
	return modelCost{max(c.scans, o.scans), max(c.stepsPerByte, o.stepsPerByte), max(c.memBits, o.memBits)}
}

// path accumulates the model cost of the machines along a critical path.
type path struct {
	scans   int
	memBits int64
}

// add puts a machine on the path. A machine that never ran (the zero
// report of a skipped phase) adds nothing.
func (p *path) add(rs ...core.Resources) {
	for _, r := range rs {
		if r.Tapes == 0 {
			continue
		}
		p.scans += r.Scans()
		p.memBits = max(p.memBits, r.PeakMemoryBits)
	}
}

// addStage puts a sharded stage on the path: its distribution, its
// slowest shard by scans, and its combine. Every shard's memory counts.
func (p *path) addStage(dist core.Resources, shards []core.Resources, merge core.Resources) {
	p.add(dist, merge)
	slowest := 0
	for _, r := range shards {
		slowest = max(slowest, r.Scans())
		p.memBits = max(p.memBits, r.PeakMemoryBits)
	}
	p.scans += slowest
}

var workloads = []workload{
	{name: "decide-mem", size: 2 << 20, setup: setupDecideMem},
	{name: "sort-file", size: 2 << 20, setup: setupSortFile},
	{name: "query-tcp", size: 512 << 10, setup: setupQueryTCP},
	{name: "fleet-proc", size: 16 << 10, setup: setupFleetProc},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// noWorkers is the runner half of workloads that run entirely in this
// process.
type noWorkers struct{}

func (noWorkers) workers() (time.Duration, int64, error) { return 0, 0, nil }
func (noWorkers) close()                                 {}

// decideMem runs the Corollary 7 multiset-equality decider on a fresh
// in-memory machine, alternating a yes- and a no-instance.
type decideMem struct {
	noWorkers
	inputs [2][]byte
	want   [2]bool
	seed   int64
}

func setupDecideMem(_ context.Context, cfg config) (runner, error) {
	m := cfg.size / 64
	rng := rand.New(rand.NewSource(cfg.seed))
	d := &decideMem{seed: cfg.seed}
	for k, in := range []problems.Instance{
		problems.GenMultisetYes(m, itemBits, rng),
		problems.GenMultisetNo(m, itemBits, rng),
	} {
		d.inputs[k] = in.Encode()
		d.want[k] = problems.MultisetEquality(in)
	}
	return d, nil
}

func (d *decideMem) job(_ context.Context, i int, tr *tracer) (jobResult, error) {
	k := i % 2
	var opts tape.Options
	if tr != nil {
		opts.Wrap = tr.tapeWrap()
	}
	m := core.NewMachineOpts(algorithms.NumDeciderTapes, d.seed, opts)
	defer m.Close()
	m.SetInput(d.inputs[k])
	v, err := algorithms.MultisetEqualityST(m)
	if err != nil {
		return jobResult{}, err
	}
	res := m.Resources()
	n := int64(len(d.inputs[k]))
	out := jobResult{bytes: n, critSteps: res.Steps, cost: modelCost{
		scans: res.Scans(), stepsPerByte: float64(res.Steps) / float64(n), memBits: res.PeakMemoryBits}}
	if got := v == core.Accept; got != d.want[k] {
		return out, fmt.Errorf("verdict %v, reference says %v", got, d.want[k])
	}
	return out, nil
}

// sortFile runs the sharded external sort with every tape on the file
// backend.
type sortFile struct {
	noWorkers
	input    []byte
	want     [sha256.Size]byte
	spillDir string
	seed     int64
	ceiling  float64 // raw sequential disk MB/s in spillDir; traced runs only
}

func setupSortFile(_ context.Context, cfg config) (runner, error) {
	items := randomItems(cfg.size/32, rand.New(rand.NewSource(cfg.seed)))
	s := &sortFile{input: joinItems(items), spillDir: cfg.spillDir, seed: cfg.seed}
	slices.SortFunc(items, bytes.Compare)
	s.want = sha256.Sum256(joinItems(items))
	if cfg.trace {
		var err error
		if s.ceiling, err = diskCeiling(cfg.spillDir, len(s.input)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *sortFile) job(ctx context.Context, _ int, tr *tracer) (jobResult, error) {
	sorter := shard.Sort{Shards: 2, FanIn: 4, RunMemoryBits: 1 << 16,
		TapeOpts: tape.Options{Storage: tape.File, SpillDir: s.spillDir}}
	if tr != nil {
		sorter.TapeOpts.Wrap = tr.tapeWrap()
		sorter.Exec = tr.sortExec(nil, nil)
	}
	out, rep, err := sorter.Run(ctx, s.input, s.seed)
	if err != nil {
		return jobResult{}, err
	}
	var p path
	p.addStage(rep.Distribute, rep.Shards, rep.Merge)
	steps := rep.CriticalPathSteps()
	n := int64(len(s.input))
	res := jobResult{bytes: n, critSteps: steps, cost: modelCost{
		scans: p.scans, stepsPerByte: float64(steps) / float64(n), memBits: p.memBits}}
	if tr != nil {
		tr.note("shard.fallbacks", float64(rep.Fallbacks))
		tr.note("tape.disk_ceiling_mb_s", s.ceiling)
		if busy, _, moved := tr.tapeTotals(); busy > 0 {
			tr.note("tape.disk_frac", float64(moved)/1e6/busy.Seconds()/s.ceiling)
		}
	}
	if rep.Fallbacks > 0 {
		return res, fmt.Errorf("%d shards fell back to the coordinator", rep.Fallbacks)
	}
	if sha256.Sum256(out) != s.want {
		return res, errors.New("sorted output differs from the reference")
	}
	return res, nil
}

// queryBudget is the planner envelope of query-tcp: at most 2 shards,
// so the 2 TCP workers serve at most one connection each at a time.
var queryBudget = plan.Budget{MemoryBits: 1 << 14, Tapes: 6, MaxShards: 2}

// queryTCP evaluates Theorem 11's Q' = (R1−R2) ∪ (R2−R1) with the
// planner, every shard attempt on one of two TCP worker processes,
// alternating a set-equal and a set-unequal database.
type queryTCP struct {
	dbs   [2]relalg.DB
	size  [2]int64
	want  [2]bool // Q' is empty
	seed  int64
	procs *tcpWorkers
	tcp   *transport.TCP
}

func setupQueryTCP(ctx context.Context, cfg config) (runner, error) {
	m := cfg.size / 64
	rng := rand.New(rand.NewSource(cfg.seed))
	q := &queryTCP{seed: cfg.seed}
	for k, in := range []problems.Instance{
		problems.GenSetYes(m, itemBits, rng),
		problems.GenSetNo(m, itemBits, rng),
	} {
		q.dbs[k] = relalg.InstanceDB(in)
		q.size[k] = int64(in.Size())
		q.want[k] = problems.SetEquality(in)
	}
	ws, err := startTCPWorkers(ctx, 2, cfg.stderr)
	if err != nil {
		return nil, err
	}
	q.procs = ws
	q.tcp = &transport.TCP{Workers: ws.addrs}
	return q, nil
}

func (q *queryTCP) workers() (time.Duration, int64, error) { return q.procs.usage() }
func (q *queryTCP) close()                                 { q.procs.stop() }

// probe reads the CPU time of the worker the TCP transport assigns to
// (shard, attempt): its round-robin rule puts it on worker
// (shard+attempt−1) mod n.
func (q *queryTCP) probe(sh, att int) func() time.Duration {
	pids := q.procs.pids()
	pid := pids[(sh+att-1)%len(pids)]
	// A worker that cannot be read has died; its attempt fails and
	// counts no CPU.
	before, err := procCPU(pid)
	return func() time.Duration {
		after, err2 := procCPU(pid)
		if err != nil || err2 != nil {
			return 0
		}
		return after - before
	}
}

func (q *queryTCP) job(ctx context.Context, i int, tr *tracer) (jobResult, error) {
	k := i % 2
	rep := &relalg.QueryReport{}
	ev := relalg.Evaluator{Plan: plan.Auto(queryBudget), Exec: q.tcp.Exec(), ExecScan: q.tcp.ExecScan(),
		Report: rep, Seed: q.seed}
	var opts tape.Options
	var wire wireMeter
	if tr != nil {
		opts.Wrap = tr.tapeWrap()
		ev.TapeOpts.Wrap = opts.Wrap
		ev.Exec = tr.sortExec(ev.Exec, q.probe)
		ev.ExecScan = tr.scanExec(ev.ExecScan, q.probe)
		wire = startWire()
	}
	m := core.NewMachineOpts(relalg.NumQueryTapes, q.seed, opts)
	defer m.Close()
	var qs int
	if tr != nil {
		qs = tr.enter("query")
	}
	rel, err := ev.EvalST(ctx, relalg.SymmetricDifference("R1", "R2"), q.dbs[k], m)
	if tr != nil {
		tr.leave(qs)
	}
	if err != nil {
		return jobResult{}, err
	}

	var p path
	p.add(rep.Coordinator)
	fallbacks := 0
	for _, sr := range rep.Sorts {
		p.addStage(sr.Distribute, sr.Shards, sr.Merge)
		fallbacks += sr.Fallbacks
	}
	for _, sc := range rep.Scans {
		p.addStage(sc.Distribute, sc.Shards, sc.Merge)
		fallbacks += sc.Fallbacks
	}
	steps := rep.TotalSteps()
	res := jobResult{bytes: q.size[k], critSteps: steps, cost: modelCost{
		scans: p.scans, stepsPerByte: float64(steps) / float64(q.size[k]), memBits: p.memBits}}
	if tr != nil {
		wire.note(tr, res.bytes)
		tr.note("shard.fallbacks", float64(fallbacks))
		tr.note("relalg.coordinator_steps", float64(rep.Coordinator.Steps))
		tr.note("plan.stages", float64(len(rep.Sorts)+len(rep.Scans)))
		notePlanner(tr, rep)
	}
	if fallbacks > 0 {
		return res, fmt.Errorf("%d shards fell back to the coordinator", fallbacks)
	}
	if got := len(rel.Tuples) == 0; got != q.want[k] {
		return res, fmt.Errorf("Q' empty = %v, reference set equality = %v", got, q.want[k])
	}
	return res, nil
}

// notePlanner replays the planner on every sort stage's recorded census,
// timing each decision, and notes the worst relative error of its
// predicted critical path against the measured one. Stages that merge
// handed-over runs have no distribution and no prediction; stages that
// hand their runs on skip the combine, and so does their prediction.
func notePlanner(tr *tracer, rep *relalg.QueryReport) {
	p := plan.Auto(queryBudget)
	worst := 0.0
	for _, sr := range rep.Sorts {
		start := time.Now()
		shape := p.Choose(sr.Items, sr.Bytes)
		tr.note("plan.choose_us", float64(time.Since(start).Nanoseconds())/1e3)
		if sr.Distribute.Steps == 0 {
			continue
		}
		c := plan.PredictSort(sr.Items, sr.Bytes, shape)
		predicted := c.Distribute + c.MaxShard
		if sr.Merge.Steps > 0 {
			predicted += c.Merge
		}
		measured := sr.CriticalPathSteps()
		worst = max(worst, float64(abs(predicted-measured))/float64(measured))
	}
	tr.note("plan.predict_err", worst)
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// fleetTrials and fleetShards shape the fleet-proc fleet: 2 shards of
// 64 trials, each shard attempt in its own worker process.
const (
	fleetTrials = 128
	fleetShards = 2
)

// fleetProc runs Theorem 8(a)'s fingerprint fleet on a fixed
// no-instance with every shard attempt in a spawned worker process.
// Every 4th fleet kills its shard 1's first worker after 16 rows, so
// the retry path runs too.
type fleetProc struct {
	input    []byte
	w        trials.Workload
	fn       trials.Func
	want     []trials.Result
	seed     int64
	cost     modelCost
	critStep int64
	// fault is the order shipped to shard 1's first attempt of every
	// 4th fleet; such fleets must report exactly one retry.
	fault *transport.WorkerFault

	children childLog // the current job's worker processes
	cpu      time.Duration
	rss      int64
}

func setupFleetProc(ctx context.Context, cfg config) (runner, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	f := &fleetProc{input: problems.GenMultisetNo(cfg.size/64, itemBits, rng).Encode(), seed: cfg.seed,
		fault: &transport.WorkerFault{Exit: true, ExitAfter: 16}}
	f.w, f.fn = algorithms.FingerprintInputWorkload(f.input)
	want, _, err := f.fleet(nil).Run(ctx, f.fn)
	if err != nil {
		return nil, fmt.Errorf("reference fleet: %w", err)
	}
	f.want = want

	// Every job runs the same trials, so their cost is fixed in set-up by
	// replaying each trial's machine with the trial's own coins (the
	// primes' sizes vary with them). Each shard runs its trials one after
	// another, so the critical path is the shard with the most steps.
	for _, rg := range f.fleet(nil).Plan.Ranges() {
		var steps int64
		for i := rg.Lo; i < rg.Hi; i++ {
			m := core.NewMachine(1, trialCoins(f.seed, i))
			m.SetInput(f.input)
			if _, _, err := algorithms.FingerprintMultisetEquality(m); err != nil {
				return nil, err
			}
			res := m.Resources()
			f.cost = f.cost.max(modelCost{scans: res.Scans(),
				stepsPerByte: float64(res.Steps) / float64(len(f.input)), memBits: res.PeakMemoryBits})
			steps += res.Steps
		}
		f.critStep = max(f.critStep, steps)
	}
	return f, nil
}

// trialCoins is the seed of trial i's machine in a fleet seeded with
// seed: the fleet hands the trial the random stream trials.RNG(seed, i),
// and FingerprintInputWorkload seeds the machine with its first draw.
func trialCoins(seed int64, i int) int64 { return trials.RNG(seed, i).Int63() }

// fleet is the fleet of one job; a nil attempt runs it in-process.
func (f *fleetProc) fleet(attempt shard.AttemptFunc) shard.Fleet {
	return shard.Fleet{
		Plan:     shard.Plan{Shards: fleetShards, Trials: fleetTrials},
		Parallel: 1,
		Seed:     f.seed,
		Retry:    shard.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Attempt:  attempt,
	}
}

func (f *fleetProc) workers() (time.Duration, int64, error) { return f.cpu, f.rss, nil }
func (f *fleetProc) close()                                 {}

func (f *fleetProc) job(ctx context.Context, i int, tr *tracer) (jobResult, error) {
	wantRetries := 0
	p := &transport.Proc{Command: spawnHook(&f.children)}
	if i%4 == 0 {
		wantRetries = 1
		p.Fault = func(sh, att int) *transport.WorkerFault {
			if sh == 1 && att == 1 {
				return f.fault
			}
			return nil
		}
	}
	attempt := p.Attempt()
	var wire wireMeter
	if tr != nil {
		attempt = tr.fleetAttempt(attempt, len(f.input))
		wire = startWire()
	}
	rows, sum, err := f.fleet(attempt).Run(trials.WithWorkload(ctx, f.w), f.fn)
	cpu, rss := f.children.drain()
	f.cpu += cpu
	f.rss = max(f.rss, rss)
	res := jobResult{bytes: int64(len(f.input)) * fleetTrials, critSteps: f.critStep, cost: f.cost}
	if tr != nil {
		wire.note(tr, res.bytes)
		tr.note("trials.trial_us", float64(cpu.Microseconds())/fleetTrials)
		tr.note("shard.fallbacks", float64(sum.Fallbacks))
	}
	if err != nil {
		return res, err
	}
	if sum.Retries != wantRetries || sum.Fallbacks != 0 {
		return res, fmt.Errorf("census: %d retries and %d fallbacks, want %d and 0", sum.Retries, sum.Fallbacks, wantRetries)
	}
	if !reflect.DeepEqual(rows, f.want) {
		return res, errors.New("fleet rows differ from the in-process reference fleet")
	}
	return res, nil
}

// randomItems returns n random itemBits-long 0-1 items.
func randomItems(n int, rng *rand.Rand) [][]byte {
	items := make([][]byte, n)
	for i := range items {
		it := make([]byte, itemBits)
		for j := range it {
			it[j] = '0' + byte(rng.Intn(2))
		}
		items[i] = it
	}
	return items
}

// joinItems encodes items as the '#'-terminated item stream.
func joinItems(items [][]byte) []byte {
	var b bytes.Buffer
	for _, it := range items {
		b.Write(it)
		b.WriteByte(problems.Separator)
	}
	return b.Bytes()
}

// diskCeiling measures raw sequential disk throughput in dir: it writes
// n bytes to a fresh file in 1 MiB calls, reads them back the same way,
// and returns the bytes moved per second of both, in MB/s.
func diskCeiling(dir string, n int) (float64, error) {
	f, err := os.CreateTemp(dir, "ceiling-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 1<<20)
	start := time.Now()
	for left := n; left > 0; left -= len(buf) {
		if _, err := f.Write(buf[:min(left, len(buf))]); err != nil {
			return 0, err
		}
	}
	if _, err := f.Seek(0, 0); err != nil {
		return 0, err
	}
	for left := n; left > 0; {
		k, err := f.Read(buf[:min(left, len(buf))])
		if err != nil {
			return 0, err
		}
		left -= k
	}
	return 2 * float64(n) / 1e6 / time.Since(start).Seconds(), nil
}

// spillDirFor returns dir, or a fresh temporary directory and its
// removal when dir is empty.
func spillDirFor(dir string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	d, err := os.MkdirTemp("", "extmem-bench-*")
	if err != nil {
		return "", nil, err
	}
	return d, func() { os.RemoveAll(d) }, nil
}
