package obs

// Fixed log-bucket latency histograms. Counters answer "how much total";
// histograms answer "how is it distributed" — cache-fetch latency
// percentiles in /metrics — and are as cheap to update under the worker
// pool as the counters are: one atomic add per observation, no locks, no
// allocation.
//
// Buckets are powers of two from 4096ns (2^12, below any real compile)
// through 2^39ns (~9.2 minutes, above any sane build), plus +Inf. Fixed
// boundaries keep exports byte-deterministic and make two snapshots
// mergeable by addition. Sub-bucket quantile estimates interpolate
// linearly inside the winning bucket — log-spaced buckets bound the error
// at a factor of two, which is plenty for p50/p99 dashboards.

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Standard histogram names (the Hist* mirror of the Ctr* counter names).
const (
	// HistUnitCompileNS is per-unit compile latency (one observation per
	// unit actually compiled).
	HistUnitCompileNS = "unit.compile_ns"
	// HistSkipDecisionNS is the per-unit cache/skip decision latency: the
	// content hash plus (when enabled) the footprint cross-check — the cost
	// of deciding *not* to compile, one observation per unit per build.
	HistSkipDecisionNS = "unit.skip_decision_ns"
	// HistBuildWallNS is whole-build wall time (one observation per
	// successful Build call).
	HistBuildWallNS = "build.wall_ns"
	// HistCASFetchNS is the client-side shared-cache fetch latency: action
	// lookup through verified blob decode, one observation per remote hit
	// attempt that reached the store (hit or verified miss).
	HistCASFetchNS = "cas.fetch_ns"
	// HistCASServeNS is the server-side /cas/ request latency, one
	// observation per request.
	HistCASServeNS = "cas.serve_ns"
	// HistCASNetNS is the per-wire-attempt latency of the shared-cache
	// client — one observation per request that was admitted by the
	// circuit breaker (success or failure), so latency spikes are visible
	// separately from the whole-fetch cas.fetch_ns.
	HistCASNetNS = "cas.net_ns"
)

// Histogram bucket geometry.
const (
	// histMinShift is the exponent of the first bucket boundary (2^12 ns).
	histMinShift = 12
	// HistBuckets is the number of finite buckets; bucket i counts
	// observations ≤ 2^(histMinShift+i) ns. One more implicit bucket
	// catches the rest (+Inf).
	HistBuckets = 28
)

// BucketBound returns finite bucket i's inclusive upper bound in
// nanoseconds.
func BucketBound(i int) int64 { return 1 << (histMinShift + i) }

// Histogram is a fixed-boundary log-bucket histogram. All methods are
// atomic and nil-safe (a nil histogram ignores observations), mirroring
// Counter's contract so instrumented code needs no "is it on" branches.
type Histogram struct {
	counts [HistBuckets + 1]int64
	sum    int64
	n      int64
}

// Observe records one value (negative values clamp to zero; durations
// from a monotonic clock cannot be negative, so a clamp only ever hides a
// recording bug rather than corrupting the distribution).
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	atomic.AddInt64(&h.counts[bucketIdx(ns)], 1)
	atomic.AddInt64(&h.sum, ns)
	atomic.AddInt64(&h.n, 1)
}

// bucketIdx maps a value to its bucket (the last index is +Inf).
func bucketIdx(ns int64) int {
	for i := 0; i < HistBuckets; i++ {
		if ns <= BucketBound(i) {
			return i
		}
	}
	return HistBuckets
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Buckets = make([]int64, HistBuckets+1)
	for i := range h.counts {
		s.Buckets[i] = atomic.LoadInt64(&h.counts[i])
	}
	s.Sum = atomic.LoadInt64(&h.sum)
	s.Count = atomic.LoadInt64(&h.n)
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts plus the observation sum and count. It is the
// form Registry.HistSnapshot returns and /metrics exports to Prometheus.
type HistogramSnapshot struct {
	// Buckets holds HistBuckets+1 per-bucket counts; Buckets[i] counts
	// observations in (BucketBound(i-1), BucketBound(i)], the last entry
	// everything larger.
	Buckets []int64 `json:"buckets"`
	// Sum / Count are the total observed nanoseconds and observations.
	Sum   int64 `json:"sum"`
	Count int64 `json:"count"`
}

// Quantile estimates the q-quantile (0 < q ≤ 1) in nanoseconds by linear
// interpolation within the winning bucket. Returns 0 for an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo := int64(0)
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := lo * 2
			if i == 0 {
				hi = BucketBound(0)
			}
			if i >= HistBuckets {
				// +Inf bucket: report its lower bound (no upper estimate).
				return lo
			}
			frac := float64(rank-seen) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += c
	}
	return BucketBound(HistBuckets - 1)
}

// Registry histograms: resolved once like counters, then updated
// lock-free.

// Histogram returns the named histogram, creating it on first use.
// Nil-safe like Counter.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.h == nil {
		r.h = make(map[string]*Histogram)
	}
	h, ok := r.h[name]
	if !ok {
		h = &Histogram{}
		r.h[name] = h
	}
	return h
}

// HistSnapshot returns a snapshot of every registered histogram.
func (r *Registry) HistSnapshot() map[string]HistogramSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(r.h))
	for name, h := range r.h {
		out[name] = h.Snapshot()
	}
	return out
}

// HistNames returns the registered histogram names, sorted.
func (r *Registry) HistNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.h))
	for name := range r.h {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Merge returns the sum of two snapshots — sound because every histogram
// shares the same fixed bucket boundaries (the property the geometry
// comment above guarantees). Used by `minibuild serve` /metrics to export
// its builder's and its CAS server's registries as one series set.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if s.Count == 0 && s.Sum == 0 && len(s.Buckets) == 0 {
		return o
	}
	if o.Count == 0 && o.Sum == 0 && len(o.Buckets) == 0 {
		return s
	}
	out := HistogramSnapshot{
		Buckets: make([]int64, HistBuckets+1),
		Sum:     s.Sum + o.Sum,
		Count:   s.Count + o.Count,
	}
	for i := range out.Buckets {
		if i < len(s.Buckets) {
			out.Buckets[i] += s.Buckets[i]
		}
		if i < len(o.Buckets) {
			out.Buckets[i] += o.Buckets[i]
		}
	}
	return out
}

// MergeCounters sums two counter snapshots by name (either may be nil).
func MergeCounters(a, b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(a)+len(b))
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// MergeHistSnapshots sums two histogram-snapshot maps by name.
func MergeHistSnapshots(a, b map[string]HistogramSnapshot) map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = out[k].Merge(v)
	}
	return out
}

// String renders a one-line summary for logs.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d sum=%dns p50=%dns p99=%dns",
		s.Count, s.Sum, s.Quantile(0.50), s.Quantile(0.99))
}
