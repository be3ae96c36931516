package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json a comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// compareMain is `bench compare -a DIR -b DIR`: for every workload and
// end-to-end metric it prints each side's median and quartiles over the
// untraced run records (-out files) in the two directories and a verdict
// against the BENCHMARK.json bound. It exits 1 when any verdict is
// "worse" or side b fails a larger fraction of its ops.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dirA := fs.String("a", "", "directory of baseline run records")
	dirB := fs.String("b", "", "directory of candidate run records")
	bench := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dirA == "" || *dirB == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench compare: need -a DIR and -b DIR")
		return 2
	}
	def, err := loadBenchmark(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	a, errA := loadRecords(*dirA)
	b, errB := loadRecords(*dirB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	worse := false
	fmt.Fprintf(stdout, "%-16s %-12s %7s %28s %28s %8s  %s\n", "workload", "metric", "bound", "a median [q1, q3]", "b median [q1, q3]", "delta", "verdict")
	for _, wl := range workloadNames {
		ra, rb := a[wl], b[wl]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, m.Bound, m.Better == "higher")
			worse = worse || v.name == "worse"
			fmt.Fprintf(stdout, "%-16s %-12s %6.0f%% %28s %28s %+7.1f%%  %s\n", wl, m.Name, m.Bound*100,
				v.a, v.b, v.delta*100, v.name)
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		fmt.Fprintf(stdout, "%-16s %-12s %7s %28.4g %28.4g\n", wl, "ops_failed", "", fa, fb)
		worse = worse || fb > fa
	}
	if worse {
		return 1
	}
	return 0
}

// loadRecords reads the untraced run records in dir, by workload.
func loadRecords(dir string) (map[string][]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run records", dir)
	}
	return out, nil
}

func values(rs []record, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Report.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func failedFrac(rs []record) float64 {
	var failed, tried int
	for _, r := range rs {
		failed += r.Report.Failed
		tried += r.Report.Attempted
	}
	if tried == 0 {
		return 0
	}
	return float64(failed) / float64(tried)
}

// comparison is one (workload, metric) verdict.
type comparison struct {
	name  string  // better, worse, unchanged or unresolved
	delta float64 // (median b − median a) / median a
	a, b  string  // "median [q1, q3]"
}

// verdict compares two samples of one metric. A change of the medians by
// more than bound is better or worse. When either side's spread (the
// quartile distance over its median) is wider than bound the medians
// cannot be trusted, and the verdict is unresolved unless every run on
// one side beats every run on the other.
func verdict(a, b []float64, bound float64, higherBetter bool) comparison {
	ma, mb := median(a), median(b)
	c := comparison{delta: (mb - ma) / ma, a: summary(a), b: summary(b)}
	improve := -c.delta
	if higherBetter {
		improve = c.delta
	}
	beats := func(x, y []float64) bool { // every x better than every y
		if higherBetter {
			return slices.Min(x) > slices.Max(y)
		}
		return slices.Max(x) < slices.Min(y)
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		c.name = "unresolved"
		if beats(b, a) {
			c.name = "better"
		} else if beats(a, b) {
			c.name = "worse"
		}
	case improve > bound:
		c.name = "better"
	case improve < -bound:
		c.name = "worse"
	default:
		c.name = "unchanged"
	}
	return c
}

// spread is the quartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return math.Inf(1)
	}
	q := quartiles(v)
	return (q[2] - q[0]) / math.Abs(q[1])
}

func summary(v []float64) string {
	if len(v) < 2 {
		return fmt.Sprintf("%.4g", median(v))
	}
	q := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q[0], q[2])
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are Python's statistics.quantiles(v, n=4) with its default
// exclusive method, so the spreads match the ones the benchmark is
// accepted on. v needs at least two values.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	ld, m := len(s), len(s)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
