package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pgrid/internal/testutil"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Sum != 10 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Median-2.5) > 1e-9 {
		t.Errorf("median = %v", s.Median)
	}
	if math.Abs(s.Std-1.29099) > 1e-4 {
		t.Errorf("std = %v", s.Std)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.Mean != 0 {
		t.Error("empty summary wrong")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.P95 && s.P95 <= s.Max
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 300, 502)); err != nil {
		t.Error(err)
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{3}) != 0 {
		t.Error("degenerate cases wrong")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("mean wrong")
	}
	if math.Abs(Std([]float64{2, 4})-math.Sqrt2) > 1e-9 {
		t.Error("std wrong")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for i := 0; i < 10; i++ {
		h.Add(float64(i))
	}
	h.Add(-1)
	h.Add(11)
	if h.Total != 12 || h.Under != 1 || h.Over != 1 {
		t.Errorf("histogram totals: %+v", h)
	}
	for i, c := range h.Counts {
		if c != 2 {
			t.Errorf("bin %d = %d, want 2", i, c)
		}
	}
	lo, hi := h.Bin(1)
	if lo != 2 || hi != 4 {
		t.Errorf("Bin(1) = %v,%v", lo, hi)
	}
	if h.String() == "" {
		t.Error("histogram rendering empty")
	}
	// Degenerate constructor arguments are normalised.
	d := NewHistogram(5, 5, 0)
	d.Add(5)
	if d.Total != 1 {
		t.Error("degenerate histogram broken")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries("latency", time.Minute)
	ts.Add(30*time.Second, 1)
	ts.Add(45*time.Second, 3)
	ts.Add(90*time.Second, 10)
	buckets := ts.Buckets()
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Count != 2 || buckets[0].Mean != 2 || buckets[0].Sum != 4 {
		t.Errorf("bucket 0 = %+v", buckets[0])
	}
	if buckets[1].Start != time.Minute || buckets[1].Count != 1 {
		t.Errorf("bucket 1 = %+v", buckets[1])
	}
	if ts.Name() != "latency" || ts.Bucket() != time.Minute {
		t.Error("accessors wrong")
	}
	if ts.Table() == "" {
		t.Error("table rendering empty")
	}
	// Zero bucket width defaults to one minute.
	d := NewTimeSeries("x", 0)
	if d.Bucket() != time.Minute {
		t.Error("default bucket wrong")
	}
}

func TestTimeSeriesConcurrent(t *testing.T) {
	ts := NewTimeSeries("concurrent", time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ts.Add(time.Duration(i)*time.Millisecond, float64(g))
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, b := range ts.Buckets() {
		total += b.Count
	}
	if total != 8000 {
		t.Errorf("lost samples: %d", total)
	}
}
