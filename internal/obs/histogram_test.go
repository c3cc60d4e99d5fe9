package obs

import (
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(1)                              // bucket 0 (≤ 4096)
	h.Observe(BucketBound(0))                 // still bucket 0 (inclusive bound)
	h.Observe(BucketBound(0) + 1)             // bucket 1
	h.Observe(BucketBound(HistBuckets - 1))   // last finite bucket
	h.Observe(BucketBound(HistBuckets-1) + 1) // +Inf
	h.Observe(-5)                             // clamps to 0 → bucket 0

	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if got := s.Buckets[0]; got != 3 {
		t.Errorf("bucket 0 = %d, want 3", got)
	}
	if got := s.Buckets[1]; got != 1 {
		t.Errorf("bucket 1 = %d, want 1", got)
	}
	if got := s.Buckets[HistBuckets-1]; got != 1 {
		t.Errorf("last finite bucket = %d, want 1", got)
	}
	if got := s.Buckets[HistBuckets]; got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	wantSum := int64(1) + BucketBound(0) + BucketBound(0) + 1 +
		BucketBound(HistBuckets-1) + BucketBound(HistBuckets-1) + 1
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(123) // must not panic
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Buckets != nil {
		t.Errorf("nil histogram snapshot not zero: %+v", s)
	}
	var r *Registry
	if r.Histogram("x") != nil {
		t.Error("nil registry returned a histogram")
	}
	if r.HistSnapshot() != nil || r.HistNames() != nil {
		t.Error("nil registry snapshot/names not nil")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty p50 = %d, want 0", q)
	}

	var h Histogram
	// 100 observations all in one bucket: every quantile lands inside it.
	val := BucketBound(5) // upper bound of bucket 5
	for i := 0; i < 100; i++ {
		h.Observe(val)
	}
	s := h.Snapshot()
	lo, hi := BucketBound(4), BucketBound(5)
	for _, q := range []float64{0.1, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got < lo || got > hi {
			t.Errorf("p%g = %d outside bucket [%d,%d]", q*100, got, lo, hi)
		}
	}
	if p10, p99 := s.Quantile(0.10), s.Quantile(0.99); p10 > p99 {
		t.Errorf("quantiles not monotonic: p10 %d > p99 %d", p10, p99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(int64(w*each + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*each {
		t.Fatalf("count = %d, want %d", s.Count, workers*each)
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket total %d != count %d", total, s.Count)
	}
}

func TestRegistryHistograms(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("a.ns")
	h2 := r.Histogram("a.ns")
	if h1 != h2 {
		t.Error("same name resolved to different histograms")
	}
	r.Histogram("b.ns").Observe(100)
	h1.Observe(10)
	h1.Observe(20)

	snap := r.HistSnapshot()
	if snap["a.ns"].Count != 2 || snap["b.ns"].Count != 1 {
		t.Errorf("snapshot counts wrong: %+v", snap)
	}
	names := r.HistNames()
	if len(names) != 2 || names[0] != "a.ns" || names[1] != "b.ns" {
		t.Errorf("names = %v, want [a.ns b.ns]", names)
	}
}
