package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/transport"
	"extmem/internal/trials"
)

// envTestArgs makes a re-executed test binary run the benchmark's
// command line with these (space-separated) arguments.
const envTestArgs = "EXTMEM_BENCH_TEST_ARGS"

func TestMain(m *testing.M) {
	// Pipe and TCP workers are this test binary, re-executed.
	transport.MaybeWorker()
	if args := os.Getenv(envTestArgs); args != "" {
		os.Exit(run(strings.Fields(args), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func mustLoadSpec(t *testing.T) spec {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// smokeConfig is the tiny scale the smoke tests run every workload at:
// 3 jobs on a quarter of the default input, at most 64 KiB.
func smokeConfig(t *testing.T, w workload, trace bool) config {
	sp := mustLoadSpec(t)
	cfg := config{
		seed:     1,
		seconds:  time.Minute,
		jobs:     3,
		size:     min(64<<10, w.size/4),
		trace:    trace,
		metrics:  sp.EndToEnd,
		spillDir: t.TempDir(),
		stderr:   testWriter{t},
	}
	if trace {
		cfg.metrics = sp.PerLayer
	}
	return cfg
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// BENCHMARK.json names the harness's workloads, each with a one-line
// reason, and gives setup_s the largest bound, none above 0.25.
func TestBenchmarkFile(t *testing.T) {
	b := mustLoadSpec(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	var setup float64
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound > setup || m.Bound > 0.25 {
			t.Errorf("%s: bound %v exceeds setup_s's %v or 0.25", m.Name, m.Bound, setup)
		}
	}
}

// Every workload runs through the harness at tiny scale, untraced and
// traced: its checks pass, it prints every metric BENCHMARK.json names
// with its unit, no end-to-end metric reads 0, and no process it started
// outlives it. The traced runs together sample exactly the per-layer
// metrics BENCHMARK.json names, so a misspelt name cannot read 0 unseen.
func TestSmokeEveryWorkload(t *testing.T) {
	b := mustLoadSpec(t)
	sampled := map[string]bool{overheadMetric: true}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				res, tr, err := measure(context.Background(), w, smokeConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				if tr != nil {
					for name := range tr.samples {
						sampled[name] = true
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != warmupJobs+3 {
					t.Fatalf("correct=%v failed=%d attempted=%d, want a clean %d jobs",
						res.Correct, res.Failed, res.Attempted, warmupJobs+3)
				}
				var printed result
				if err := json.Unmarshal(res.line(), &printed); err != nil {
					t.Fatal(err)
				}
				want := b.EndToEnd
				if trace {
					want = b.PerLayer
				}
				if len(printed.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(printed.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := printed.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not printed", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s printed in %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					case !trace && !(m.Value > 0):
						t.Errorf("%s = %v, want a positive value", d.Name, m.Value)
					}
				}
				assertNoChildren(t)
			})
		}
	}
	for _, d := range b.PerLayer {
		if !sampled[d.Name] {
			t.Errorf("per-layer metric %s is in BENCHMARK.json, but no workload measured it", d.Name)
		}
		delete(sampled, d.Name)
	}
	for name := range sampled {
		t.Errorf("the harness measures per-layer metric %s, which BENCHMARK.json does not list", name)
	}
}

// A workload whose reference is wrong fails every job — the checks can
// fail — and a failed check still stops the workload's worker processes.
func TestWrongReferenceFailsEveryJob(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(runner)
	}{
		{"decide-mem", func(r runner) {
			d := r.(*decideMem)
			d.want[0], d.want[1] = !d.want[0], !d.want[1]
		}},
		{"query-tcp", func(r runner) {
			q := r.(*queryTCP)
			q.want[0], q.want[1] = !q.want[0], !q.want[1]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, _ := workloadByName(c.name)
			cfg := smokeConfig(t, w, false)
			setup := w.setup
			w.setup = func(ctx context.Context, cfg config) (runner, error) {
				r, err := setup(ctx, cfg)
				if err == nil {
					c.corrupt(r)
				}
				return r, err
			}
			res, _, err := measure(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d, want fail_frac 1", res.Correct, res.Failed, res.Attempted)
			}
			assertNoChildren(t)
		})
	}
}

// A fleet that was due a worker death but reports no retry fails its
// census check, although its rows are right.
func TestFleetCensusMismatchFails(t *testing.T) {
	w, _ := workloadByName("fleet-proc")
	cfg := smokeConfig(t, w, false)
	setup := w.setup
	w.setup = func(ctx context.Context, cfg config) (runner, error) {
		r, err := setup(ctx, cfg)
		if err == nil {
			r.(*fleetProc).fault = nil
		}
		return r, err
	}
	res, _, err := measure(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Jobs 0..4 run; jobs 0 and 4 are due a fault.
	if res.Failed != 2 {
		t.Errorf("failed=%d of %d, want exactly the 2 fleets due a fault", res.Failed, res.Attempted)
	}
	assertNoChildren(t)
}

// fleet-proc's model cost replays the coins the fleet gives its trials:
// in the benchmark's own fleet, trial i's first draw — the seed of its
// machine — is trialCoins(seed, i), and the replayed machines decide as
// the reference fleet's rows say.
func TestFleetCostReplaysTheFleetsCoins(t *testing.T) {
	w, _ := workloadByName("fleet-proc")
	r, err := w.setup(context.Background(), smokeConfig(t, w, false))
	if err != nil {
		t.Fatal(err)
	}
	f := r.(*fleetProc)
	coins := make([]int64, fleetTrials)
	if _, _, err := f.fleet(nil).Run(context.Background(), func(i int, rng *rand.Rand) trials.Result {
		coins[i] = rng.Int63()
		return trials.Result{}
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range coins {
		if want := trialCoins(f.seed, i); c != want {
			t.Errorf("trial %d: the fleet's machine seed is %d, the replay's %d", i, c, want)
		}
	}
	for i, row := range f.want {
		m := core.NewMachine(1, trialCoins(f.seed, i))
		m.SetInput(f.input)
		v, _, err := algorithms.FingerprintMultisetEquality(m)
		if err != nil {
			t.Fatal(err)
		}
		if row.Trial != i || row.Accept != (v == core.Accept) {
			t.Errorf("trial %d: reference row %+v, replayed verdict %v", i, row, v)
		}
	}
}

// An interrupted run stops every process it started: the benchmark, run
// as a child, gets SIGINT in its measured phase, exits 130, and no
// process carrying its environment survives it.
func TestInterruptStopsEveryProcess(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"query-tcp", "fleet-proc"} {
		t.Run(name, func(t *testing.T) {
			tag := fmt.Sprintf("EXTMEM_BENCH_TEST_TAG=%d", rand.Int63())
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(), tag,
				envTestArgs+"=-workload "+name+" -seconds 60 -size 4096 -spill-dir "+t.TempDir())
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			measuring := make(chan struct{})
			go func() {
				sc := bufio.NewScanner(stderr)
				for sc.Scan() {
					if strings.HasSuffix(sc.Text(), "; measuring") {
						close(measuring)
						break
					}
				}
				io.Copy(io.Discard, stderr)
			}()
			select {
			case <-measuring:
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatal("the benchmark never reached its measured phase")
			}
			time.Sleep(100 * time.Millisecond) // let a job get under way
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			err = cmd.Wait()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 130 {
				t.Errorf("interrupted benchmark exited with %v, want status 130", err)
			}
			if pids := processesWithEnv(t, tag); len(pids) > 0 {
				t.Errorf("processes %v outlived the interrupted benchmark", pids)
			}
		})
	}
}

// assertNoChildren fails if this process has a child process, running or
// unreaped.
func assertNoChildren(t *testing.T) {
	t.Helper()
	self := strconv.Itoa(os.Getpid())
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the process has exited
		}
		// After the command name: state, then the parent's pid.
		f := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
		if len(f) > 1 && f[1] == self {
			t.Errorf("child process %s (%s) is still there", filepath.Base(filepath.Dir(path)), f[0])
		}
	}
}

// processesWithEnv lists the processes whose environment holds entry.
func processesWithEnv(t *testing.T, entry string) []string {
	t.Helper()
	var pids []string
	envs, _ := filepath.Glob("/proc/[0-9]*/environ")
	for _, path := range envs {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		for _, kv := range strings.Split(string(data), "\x00") {
			if kv == entry {
				pids = append(pids, filepath.Base(filepath.Dir(path)))
			}
		}
	}
	return pids
}

// The percentile rule is nearest rank: p90 of 100 samples is the 90th
// smallest, with 10 samples beyond it, and p50 of 20 is the 10th.
func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{{100, 90, 90}, {20, 50, 10}, {1, 90, 1}, {10, 90, 9}, {3, 50, 2}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..%d = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

// Self time subtracts the union of the children, clipped to the parent:
// overlapping children count once, and time outside the parent not at all.
func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 20, End: 40}, {Start: 10, End: 30}, {Start: 90, End: 120}, {Start: -5, End: 5}, {Start: 50, End: 50}}
	if got := selfTime(parent, kids); got != 55 {
		t.Errorf("self time = %d, want 100 − (5 + 30 + 10) = 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

// The quartiles are those of Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolated, as Python does
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "job_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_mb_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		d    metricDef
		head []float64
		want string
	}{
		{lower, []float64{103, 101, 104, 102, 103}, verdictWithin},
		{lower, []float64{98, 97, 96, 98, 97}, verdictWithin}, // every run faster, but by less than the bound
		{lower, []float64{115, 116, 114, 115, 117}, verdictWorse},
		{lower, []float64{80, 81, 79, 80, 82}, verdictBetter},
		{higher, []float64{80, 81, 79, 80, 82}, verdictWorse},
		{lower, []float64{60, 140, 100, 70, 130}, verdictUnresolved},
		{lower, []float64{90, 98, 60, 95, 70}, verdictBetter}, // wide spread, but every run beats every base run
	} {
		if got := verdict(c.d, base, c.head); got != c.want {
			t.Errorf("verdict(%s, %v) = %q, want %q", c.d.Name, c.head, got, c.want)
		}
	}
	rec := func(seed int64, v float64) record {
		return record{Workload: "decide-mem", Seed: seed, result: result{Metrics: map[string]metric{"model_scans": {v, "count"}}}}
	}
	if got := exactVerdict([]record{rec(1, 159), rec(2, 160)}, []record{rec(1, 159), rec(2, 160)}, "decide-mem", "model_scans"); got != verdictEqual {
		t.Errorf("same model cost per seed: %q, want %q", got, verdictEqual)
	}
	if got := exactVerdict([]record{rec(1, 159)}, []record{rec(1, 158)}, "decide-mem", "model_scans"); got != verdictDiffers {
		t.Errorf("changed model cost: %q, want %q", got, verdictDiffers)
	}
}

// -compare reads -record files and exits 1 when a metric got worse.
func TestCompareMode(t *testing.T) {
	dir := t.TempDir()
	sp := mustLoadSpec(t)
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			m := map[string]metric{}
			for _, d := range sp.EndToEnd {
				v := 1 + float64(i)/1000
				if strings.HasPrefix(d.Name, "model_") {
					v = 1 // model costs are exact
				}
				m[d.Name] = metric{v, d.Unit}
			}
			m["job_p50_ms"] = metric{p50 + float64(i)/10, "ms"}
			if err := appendRecord(path, record{Workload: "sort-file", Seed: 1, result: result{Correct: true, Attempted: 1, Metrics: m}}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slow := write("base.jsonl", 100), write("same.jsonl", 101), write("slow.jsonl", 130)
	var out strings.Builder
	if code := run([]string{"-compare", base, same}, &out, io.Discard); code != 0 {
		t.Errorf("comparing equal runs exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", base, slow}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("comparing against slower runs exited %d:\n%s", code, out.String())
	}
}
