package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// e2eMetric is one end-to-end metric as BENCHMARK.json declares it; the
// test keeps the two in step.
type e2eMetric struct {
	name, unit  string
	lowerBetter bool
	bound       float64 // share of the baseline's median by which it may get worse
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", true, 0.25},
	{"throughput_ops", "1/s", false, 0.25},
	{"cpu_us_per_op", "us", true, 0.25},
	{"p50_us", "us", true, 0.25},
	{"p99_us", "us", true, 0.25},
	{"heap_mb", "MB", true, 0.10},
}

// shapeMetrics must repeat exactly between two sets of runs of one commit.
var shapeMetrics = []string{"overlay.partitions", "overlay.depth_mean", "overlay.replicas_mean"}

// readRecords reads the JSON lines a run of all workloads prints.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: a line names no workload; a result file is the output of a run of all workloads", path)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median,
// NaN for fewer than four values.
func spread(values []float64) float64 {
	if len(values) < 4 {
		return math.NaN()
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference, the run-to-run spread and the bound, with a
// verdict: unchanged or improved/regressed only when the spread (or, for
// single runs, the difference itself) stays within the bound, unresolved
// otherwise. It returns the process exit code.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil {
		var b []record
		if b, err = readRecords(pathB); err == nil {
			return compareRecords(w, a, b)
		}
	}
	logf("bench: %v", err)
	return 2
}

func compareRecords(w io.Writer, a, b []record) int {
	code := 0
	values := func(recs []record, workload string, trace int, name string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	for _, recs := range [][]record{a, b} {
		for _, r := range recs {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(w, "%s seed %d trace %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	fmt.Fprintf(w, "%-18s %-15s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "A", "B", "diff", "spread", "bound", "verdict")
	for _, spec := range workloads {
		for _, m := range e2eMetrics {
			va, vb := values(a, spec.name, 0, m.name), values(b, spec.name, 0, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			diff := (mb - ma) / ma
			worse := diff
			if !m.lowerBetter {
				worse = -diff
			}
			sp := math.Max(spread(va), spread(vb)) // NaN if either set is too small
			verdict := "unchanged"
			switch {
			case sp > m.bound, math.IsNaN(sp) && math.Abs(diff) > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "regressed"
				code = 1
			case worse < -m.bound:
				verdict = "improved"
			}
			spText := "-"
			if !math.IsNaN(sp) {
				spText = fmt.Sprintf("%.1f%%", 100*sp)
			}
			fmt.Fprintf(w, "%-18s %-15s %12.4g %12.4g %+7.1f%% %8s %5.0f%%  %s\n",
				spec.name, m.name, ma, mb, 100*diff, spText, 100*m.bound, verdict)
		}
		for _, name := range shapeMetrics {
			va, vb := values(a, spec.name, 1, name), values(b, spec.name, 1, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			same := true
			for _, v := range append(va, vb...) {
				same = same && v == va[0]
			}
			if !same {
				fmt.Fprintf(w, "%-18s %-15s differs between runs: %v vs %v\n", spec.name, name, va, vb)
				code = 1
			}
		}
	}
	return code
}
