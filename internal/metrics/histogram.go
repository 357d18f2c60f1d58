package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is one slot per possible bits.Len64 of a nanosecond count:
// bucket i holds samples whose duration d satisfies bits.Len64(d) == i,
// i.e. d ∈ [2^(i-1), 2^i). Bucket 0 holds non-positive samples. 65 slots
// cover the full int64 nanosecond range (~292 years) in ~1 KiB.
const numBuckets = 65

// Histogram is a lock-free latency histogram with power-of-two buckets.
// Record costs a handful of atomic adds and memory stays constant however
// many samples arrive, so it is safe on hot paths. Count, Sum and Max are
// exact; quantiles are approximate, rounded up to the holding bucket's
// upper bound (≤ 2× overestimate, never an underestimate) and clamped by
// the exact maximum.
//
// All methods are safe on a nil *Histogram (Record is a no-op, reads
// return zero), so disabled-observability paths need no branches.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// bucketUpper is the inclusive upper bound of bucket i in nanoseconds.
func bucketUpper(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1)<<uint(i) - 1)
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns how many samples were recorded.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact total of all samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Max returns the exact largest sample (0 if none).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Mean returns the exact arithmetic mean (0 if empty).
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sum.Load()) / n)
}

// Quantile returns an upper bound on the q-th quantile (q in [0,1]): the
// upper edge of the bucket holding the ceil(q·count)-th smallest sample,
// clamped by the exact maximum. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			ub := bucketUpper(i)
			if max := time.Duration(h.max.Load()); ub > max {
				ub = max
			}
			return ub
		}
	}
	return time.Duration(h.max.Load())
}

// HistogramSnapshot is a point-in-time copy of a histogram's state, used
// by the Prometheus-text renderer.
type HistogramSnapshot struct {
	Counts [numBuckets]uint64
	Count  uint64
	Sum    time.Duration
	Max    time.Duration
}

// BucketUpper exposes bucket i's inclusive upper bound for renderers.
func (HistogramSnapshot) BucketUpper(i int) time.Duration { return bucketUpper(i) }

// NumBuckets is the fixed bucket count of every Histogram.
func (HistogramSnapshot) NumBuckets() int { return numBuckets }

// Snapshot copies the current counters. The copy is not atomic across
// buckets (concurrent Records may straddle it) but each field is itself a
// consistent atomic load.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	return s
}
