package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// TimeSeries accumulates timestamped samples and aggregates them into
// fixed-width time buckets, which is how the PlanetLab figures (peers over
// time, bandwidth over time, query latency over time) are produced.
// TimeSeries is safe for concurrent use; the simulator's peers record into
// shared series from many goroutines.
type TimeSeries struct {
	mu      sync.Mutex
	name    string
	bucket  time.Duration
	samples map[int64][]float64
}

// NewTimeSeries creates a time series aggregated into buckets of the given
// width.
func NewTimeSeries(name string, bucket time.Duration) *TimeSeries {
	if bucket <= 0 {
		bucket = time.Minute
	}
	return &TimeSeries{name: name, bucket: bucket, samples: make(map[int64][]float64)}
}

// Name returns the series name.
func (ts *TimeSeries) Name() string { return ts.name }

// Bucket returns the bucket width.
func (ts *TimeSeries) Bucket() time.Duration { return ts.bucket }

// Add records a sample at the given (simulated) time offset from the start
// of the experiment.
func (ts *TimeSeries) Add(at time.Duration, value float64) {
	idx := int64(at / ts.bucket)
	ts.mu.Lock()
	ts.samples[idx] = append(ts.samples[idx], value)
	ts.mu.Unlock()
}

// BucketStat is the aggregate of one time bucket.
type BucketStat struct {
	// Start is the start offset of the bucket.
	Start time.Duration
	// Count is the number of samples in the bucket.
	Count int
	// Sum, Mean and Std summarise the sample values.
	Sum, Mean, Std float64
}

// Buckets returns the per-bucket aggregates in time order.
func (ts *TimeSeries) Buckets() []BucketStat {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	idxs := make([]int64, 0, len(ts.samples))
	for i := range ts.samples {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out := make([]BucketStat, 0, len(idxs))
	for _, i := range idxs {
		vals := ts.samples[i]
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		out = append(out, BucketStat{
			Start: time.Duration(i) * ts.bucket,
			Count: len(vals),
			Sum:   sum,
			Mean:  Mean(vals),
			Std:   Std(vals),
		})
	}
	return out
}

// Table renders the series as aligned text rows (minute, count, sum, mean,
// std), the format used by the benchmark harness output.
func (ts *TimeSeries) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (bucket %v)\n", ts.name, ts.bucket)
	fmt.Fprintf(&b, "%10s %8s %12s %12s %12s\n", "t", "count", "sum", "mean", "std")
	for _, bs := range ts.Buckets() {
		fmt.Fprintf(&b, "%10v %8d %12.2f %12.2f %12.2f\n", bs.Start, bs.Count, bs.Sum, bs.Mean, bs.Std)
	}
	return b.String()
}
