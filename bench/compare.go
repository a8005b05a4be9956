package main

// compare.go is the -compare mode: it reads two sets of -record files —
// runs of a base commit and of a new one — and judges every workload ×
// end-to-end metric against the bound BENCHMARK.json fixes for it.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Verdicts of a compared metric.
const (
	verdictWithin     = "within bound"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictEqual      = "equal"
	verdictDiffers    = "differs"
)

func runCompare(endToEnd []metricDef, basePattern, newPattern string, stdout, stderr io.Writer) int {
	base, err := loadRecords(basePattern)
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("no untraced records match %q", basePattern)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	head, err := loadRecords(newPattern)
	if err == nil && len(head) == 0 {
		err = fmt.Errorf("no untraced records match %q", newPattern)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-10s %-20s %7s %24s %24s %8s %6s  %s\n",
		"workload", "metric", "runs", "base median [q1, q3]", "new median [q1, q3]", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := valuesOf(base, w.name, d.Name), valuesOf(head, w.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(d, a, b)
			if strings.HasPrefix(d.Name, "model_") {
				v = exactVerdict(base, head, w.name, d.Name)
			}
			if v != verdictWithin && v != verdictBetter && v != verdictEqual {
				code = 1
			}
			aq1, am, aq3 := quartiles(a)
			bq1, bm, bq3 := quartiles(b)
			fmt.Fprintf(stdout, "%-10s %-20s %3d/%-3d %24s %24s %+7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, len(a), len(b),
				fmt.Sprintf("%.4g [%.4g, %.4g]", am, aq1, aq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", bm, bq1, bq3),
				100*(bm-am)/am, 100*d.Bound, v)
		}
	}
	return code
}

// loadRecords reads every untraced record in the files matching pattern.
func loadRecords(pattern string) ([]record, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %v", name, line, err)
			}
			if !r.Trace {
				recs = append(recs, r)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

func valuesOf(recs []record, workload, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// verdict judges new against base for one metric. A change of the
// medians beyond the bound is worse or better. When either side's spread
// between quartiles, as a share of its median, exceeds the bound, the
// comparison cannot resolve a change of that size: it is unresolved,
// unless every new run beats every base run.
func verdict(d metricDef, base, head []float64) string {
	lower := d.Better == "lower"
	if spread(base) > d.Bound || spread(head) > d.Bound {
		for _, x := range head {
			for _, y := range base {
				if (lower && x >= y) || (!lower && x <= y) {
					return verdictUnresolved
				}
			}
		}
		return verdictBetter
	}
	_, a, _ := quartiles(base)
	_, b, _ := quartiles(head)
	worse := (b - a) / a
	if !lower {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return verdictWorse
	case -worse > d.Bound:
		return verdictBetter
	}
	return verdictWithin
}

// exactVerdict requires a model metric to read the same in every run of
// either side that used the same seed: the model's costs are exact.
func exactVerdict(base, head []record, workload, metric string) string {
	seen := map[int64]float64{}
	for _, r := range slices.Concat(base, head) {
		m, ok := r.Metrics[metric]
		if !ok || r.Workload != workload {
			continue
		}
		if v, dup := seen[r.Seed]; dup && v != m.Value {
			return verdictDiffers
		}
		seen[r.Seed] = m.Value
	}
	return verdictEqual
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives with its default exclusive
// method, so spreads read the same as in tools built on it. A single
// sample is all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
