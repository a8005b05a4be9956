package main

// measure.go runs one workload in this process — set-up, warm-up, the
// closed measured loop — and turns what it saw into metrics.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"
)

// setupRounds is how often a run sets its workload up; setup_s is the
// median.
const setupRounds = 15

// warmupJobs run after set-up and before the clock starts, so caches and
// lazily built state are warm. They are checked and counted, not timed.
const warmupJobs = 2

// config is one workload run's configuration.
type config struct {
	seed     int64
	seconds  time.Duration // length of the measured phase
	jobs     int           // > 0 ends the measured phase after this many jobs
	size     int           // input bytes of one job
	trace    bool
	metrics  []metricDef // the metrics to report, from BENCHMARK.json
	spillDir string
	stderr   io.Writer
}

// metricDef declares a metric as BENCHMARK.json lists it. Bound applies
// to end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// meanMetrics are the per-layer metrics that average their per-job
// values instead of taking the median: counts and times that are zero on
// most jobs.
var meanMetrics = map[string]bool{
	"shard.attempts":            true,
	"shard.retries":             true,
	"shard.fallbacks":           true,
	"shard.useful_attempt_frac": true,
	"shard.backoff_ms":          true,
	"transport.worker_cpu_ms":   true,
	"transport.wait_ms":         true,
}

// overheadMetric is the per-layer metric that compares the traced and
// untraced jobs of a traced run rather than summarizing traced jobs.
const overheadMetric = "trace.overhead_frac"

// result is the outcome of one run, printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs workload w: set-up, warm-up, then a closed loop with one
// client — the next job starts only once the previous one has returned
// and passed its check — until cfg.seconds have passed on the loop's
// clock, which stops while the other set-up rounds run. Untraced, it
// reports the end-to-end metrics. Traced, every other block of four jobs
// is traced (so each block holds both instance kinds and the faulted
// fleet) and it reports the per-layer metrics; the untraced blocks
// give the tracing overhead.
func measure(ctx context.Context, w workload, cfg config) (result, *tracer, error) {
	spill, cleanup, err := spillDirFor(cfg.spillDir)
	if err != nil {
		return result{}, nil, err
	}
	defer cleanup()
	cfg.spillDir = spill
	if cfg.size == 0 {
		cfg.size = w.size
	}

	setups := make([]float64, 0, setupRounds)
	setup := func() (runner, error) {
		start := time.Now()
		r, err := w.setup(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return r, nil
	}
	r, err := setup()
	if err != nil {
		return result{}, nil, err
	}
	defer r.close()
	fmt.Fprintf(cfg.stderr, "bench: %s: set up in %.3fs; measuring\n", w.name, setups[0])

	// The other set-up rounds are spread over the measured phase, off its
	// clock, so that setup_s samples the host over the whole run as the
	// job times do, not in one burst at its start. Each round starts from
	// a collected heap, as the first starts from a fresh one, and its
	// runner is torn down at once and its garbage collected, so that the
	// next job does not pay for it.
	var paused, pausedCPU time.Duration
	spareSetup := func() error {
		start, cpu := time.Now(), selfCPU()
		runtime.GC()
		spare, err := setup()
		if err != nil {
			return err
		}
		spare.close()
		runtime.GC()
		paused += time.Since(start)
		pausedCPU += selfCPU() - cpu
		return nil
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := result{}
	var (
		durs, traced []float64
		bytes        int64
		cost         modelCost
		errs         int
	)
	run := func(i int, timed bool) error {
		var jt *tracer
		if tr != nil && (i/4)%2 == 1 {
			jt = tr
			jt.startJob(i)
		}
		start := time.Now()
		jr, err := r.job(ctx, i, jt)
		d := time.Since(start)
		if jt != nil {
			jt.finishJob(jr)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			if errs++; errs <= 3 {
				fmt.Fprintf(cfg.stderr, "bench: %s: job %d: %v\n", w.name, i, err)
			}
			return nil
		}
		if timed {
			bytes += jr.bytes
			cost = cost.max(jr.cost)
			if jt != nil {
				traced = append(traced, ms(d))
			} else {
				durs = append(durs, ms(d))
			}
		}
		return nil
	}
	for i := 0; i < warmupJobs; i++ {
		if err := run(i, false); err != nil {
			return result{}, nil, err
		}
	}

	workerCPU0, _, err := r.workers()
	if err != nil {
		return result{}, nil, err
	}
	cpu0 := selfCPU()
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) - paused }
	for i := warmupJobs; ; i++ {
		n := i - warmupJobs
		if n > 0 && (clock() >= cfg.seconds || (cfg.jobs > 0 && n >= cfg.jobs)) {
			break
		}
		if len(setups) < setupRounds && clock() >= time.Duration(len(setups))*cfg.seconds/setupRounds {
			if err := spareSetup(); err != nil {
				return result{}, nil, err
			}
		}
		if err := run(i, true); err != nil {
			return result{}, nil, err
		}
	}
	wall := clock()
	cpu := selfCPU() - cpu0 - pausedCPU
	workerCPU, workerRSS, err := r.workers()
	if err != nil {
		return result{}, nil, err
	}
	cpu += workerCPU - workerCPU0
	rss, err := peakRSS(0)
	if err != nil {
		return result{}, nil, err
	}
	// A phase ended by cfg.jobs may leave rounds over.
	for len(setups) < setupRounds {
		if err := spareSetup(); err != nil {
			return result{}, nil, err
		}
	}

	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Metrics = map[string]metric{}
	if tr == nil {
		mb := float64(bytes) / 1e6
		vals := map[string]float64{
			"throughput_mb_s":      mb / wall.Seconds(),
			"job_p50_ms":           percentile(durs, 50),
			"job_p90_ms":           percentile(durs, 90),
			"cpu_ms_per_mb":        ms(cpu) / mb,
			"peak_rss_mb":          float64(rss+workerRSS) / (1 << 20),
			"setup_s":              median(setups),
			"model_scans":          float64(cost.scans),
			"model_steps_per_byte": cost.stepsPerByte,
			"model_mem_bits":       float64(cost.memBits),
		}
		for _, m := range cfg.metrics {
			v, ok := vals[m.Name]
			if !ok {
				return result{}, nil, fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the harness does not measure", m.Name)
			}
			res.Metrics[m.Name] = metric{v, m.Unit}
		}
		return res, nil, nil
	}
	// A per-layer metric no traced job sampled does not apply to the
	// workload and reads 0.
	for _, m := range cfg.metrics {
		v := 0.0
		switch xs := tr.samples[m.Name]; {
		case m.Name == overheadMetric:
			if len(durs) > 0 && len(traced) > 0 {
				v = percentile(traced, 50)/percentile(durs, 50) - 1
			}
		case len(xs) == 0:
		case meanMetrics[m.Name]:
			v = mean(xs)
		default:
			v = median(xs)
		}
		res.Metrics[m.Name] = metric{v, m.Unit}
	}
	return res, tr, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
// It is always an observed value; with n samples, n−⌈p·n/100⌉ lie
// beyond it. Empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// line is the result as the single JSON line the run prints last. A
// value that is not finite (a ratio over a run in which every job
// failed) is printed as 0.
func (r result) line() []byte {
	for k, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.Metrics[k] = metric{0, m.Unit}
		}
	}
	b, _ := json.Marshal(r) // finite floats and strings always encode
	return b
}
