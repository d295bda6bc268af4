package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a lock-free log2-bucketed latency sketch: bucket i
// counts observations with nanosecond value in [2^i, 2^(i+1)). The
// geometric buckets bound relative quantile error at 2x, which is
// plenty for spotting chunk-latency outliers, while keeping Observe to
// two atomic adds plus a bit scan.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [64]atomic.Int64
}

// Observe records one latency of ns nanoseconds (negative values are
// clamped to zero).
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		old := h.maxNs.Load()
		if ns <= old || h.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
}

// Snapshot renders the sketch into an immutable summary, including the
// non-zero log2 buckets (so downstream consumers — the Prometheus
// histogram exposition, /debug/scans — can render real distributions,
// not just the quantile summaries).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [64]int64
	total := int64(0)
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, MaxSec: secondsOf(h.maxNs.Load())}
	if total == 0 {
		return s
	}
	s.MeanSec = secondsOf(h.sumNs.Load()) / float64(total)
	s.P50Sec = quantile(counts[:], total, 0.50)
	s.P90Sec = quantile(counts[:], total, 0.90)
	s.P99Sec = quantile(counts[:], total, 0.99)
	for i, c := range counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{UpperNs: bucketUpperNs(i), Count: c})
		}
	}
	return s
}

// bucketUpperNs returns bucket i's exclusive upper bound in
// nanoseconds. Bucket 0 holds exactly the value 0; bucket i (i>0)
// spans [2^(i-1), 2^i). The top bucket's bound saturates at MaxInt64.
func bucketUpperNs(i int) int64 {
	if i == 0 {
		return 1
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return 1 << uint(i)
}

// quantile returns the geometric midpoint of the bucket holding the
// q-quantile observation.
func quantile(counts []int64, total int64, q float64) float64 {
	rank := int64(q * float64(total-1))
	seen := int64(0)
	for i, c := range counts {
		seen += c
		if seen > rank {
			// Bucket i spans [2^(i-1), 2^i) ns (bucket 0 is exactly 0);
			// report the geometric midpoint.
			if i == 0 {
				return 0
			}
			lo := int64(1) << uint(i-1)
			return secondsOf(lo + lo/2)
		}
	}
	return 0
}

// HistogramSnapshot summarizes a latency distribution in seconds.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// MeanSec is the arithmetic mean latency.
	MeanSec float64 `json:"mean_sec"`
	// P50Sec, P90Sec and P99Sec are quantile estimates (log2 buckets:
	// at most 2x relative error).
	P50Sec float64 `json:"p50_sec"`
	P90Sec float64 `json:"p90_sec"`
	P99Sec float64 `json:"p99_sec"`
	// MaxSec is the exact maximum observed latency.
	MaxSec float64 `json:"max_sec"`
	// Buckets lists the non-zero log2 buckets in ascending bound order:
	// the full distribution behind the quantile summaries. Omitted when
	// no observations were recorded.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-zero log2 bucket of a latency sketch.
type HistogramBucket struct {
	// UpperNs is the bucket's exclusive upper bound in nanoseconds:
	// bucket [UpperNs/2, UpperNs), except the zero bucket (UpperNs 1,
	// holding exact-zero observations) and the saturated top bucket
	// (UpperNs MaxInt64).
	UpperNs int64 `json:"upper_ns"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
}

// Merge folds another snapshot into s: counts and bucket populations
// add, the mean is count-weighted, the max takes the larger side, and
// the quantiles are re-estimated from the merged buckets. The
// process-lifetime Aggregator uses it to combine per-scan sketches.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if o.Count == 0 {
		return s
	}
	if s.Count == 0 {
		return o
	}
	var counts [64]int64
	addBuckets(&counts, s.Buckets)
	addBuckets(&counts, o.Buckets)
	m := HistogramSnapshot{Count: s.Count + o.Count, MaxSec: math.Max(s.MaxSec, o.MaxSec)}
	m.MeanSec = (s.MeanSec*float64(s.Count) + o.MeanSec*float64(o.Count)) / float64(m.Count)
	m.P50Sec = quantile(counts[:], m.Count, 0.50)
	m.P90Sec = quantile(counts[:], m.Count, 0.90)
	m.P99Sec = quantile(counts[:], m.Count, 0.99)
	for i, c := range counts {
		if c != 0 {
			m.Buckets = append(m.Buckets, HistogramBucket{UpperNs: bucketUpperNs(i), Count: c})
		}
	}
	return m
}

// addBuckets scatters snapshot buckets back onto the 64-slot log2
// grid.
func addBuckets(counts *[64]int64, bs []HistogramBucket) {
	for _, b := range bs {
		counts[bucketIndex(b.UpperNs)] += b.Count
	}
}

// bucketIndex inverts bucketUpperNs.
func bucketIndex(upperNs int64) int {
	if upperNs <= 1 {
		return 0
	}
	if upperNs == math.MaxInt64 {
		return 63
	}
	return bits.Len64(uint64(upperNs)) - 1
}
