package obs

import (
	"sync/atomic"
	"unsafe"
)

// NumBuckets is the log2 bucket count: bucket 0 holds latency 0, bucket b
// holds [2^(b-1), 2^b-1] nanoseconds, and bucket 63 absorbs the unbounded
// tail. 62 finite buckets span ~146 years in nanoseconds, so the tail
// bucket is unreachable in practice but keeps bucketOf total.
const NumBuckets = 64

// LatencyStripe is one session's histogram shard. The hot path touches only
// this stripe (three uncontended atomic adds), mirroring how retire/free
// counts go through the session's cached atomicx.StripedCounter stripe. The
// trailing pad keeps neighbouring stripes' tails off a shared cache line.
type LatencyStripe struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	_       [128 - (unsafe.Sizeof([3]atomic.Int64{}))%128]byte
}

// Record adds one latency observation in nanoseconds.
func (s *LatencyStripe) Record(ns int64) {
	s.buckets[bucketOf(ns)].Add(1)
	s.count.Add(1)
	s.sum.Add(ns)
	for {
		m := s.max.Load()
		if ns <= m || s.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// since records the time elapsed from t0 (an obs.Now reading).
func (s *LatencyStripe) since(t0 int64) { s.Record(Now() - t0) }

// Histogram is a striped log-bucketed latency histogram: stripes are
// selected by session id & mask (power-of-two striping, identical to
// atomicx.StripedCounter) and folded only at snapshot time.
type Histogram struct {
	stripes []LatencyStripe
	mask    int
}

// NewHistogram builds a histogram striped for about `sessions` concurrent
// writers (rounded up to a power of two).
func NewHistogram(sessions int) *Histogram {
	n := 1
	for n < sessions {
		n <<= 1
	}
	return &Histogram{stripes: make([]LatencyStripe, n), mask: n - 1}
}

// Stripe returns the shard session ids congruent to id serialize on.
func (h *Histogram) Stripe(id int) *LatencyStripe { return &h.stripes[id&h.mask] }

// Record adds one observation attributed to the given session id.
func (h *Histogram) Record(id int, ns int64) { h.Stripe(id).Record(ns) }

// HistSnapshot is a folded histogram. Buckets is trimmed after the last
// non-empty bucket; Quantile reconstructs latency estimates from it.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum_ns"`
	Max     int64   `json:"max_ns"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot folds every stripe. Concurrent recording skews the fold by at
// most the in-flight observations (StripedCounter semantics).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	var buckets [NumBuckets]int64
	top := -1
	for i := range h.stripes {
		st := &h.stripes[i]
		s.Count += st.count.Load()
		s.Sum += st.sum.Load()
		if m := st.max.Load(); m > s.Max {
			s.Max = m
		}
		for b := 0; b < NumBuckets; b++ {
			if n := st.buckets[b].Load(); n != 0 {
				buckets[b] += n
				if b > top {
					top = b
				}
			}
		}
	}
	if top >= 0 {
		s.Buckets = append([]int64(nil), buckets[:top+1]...)
	}
	return s
}

// BucketUpper returns the inclusive upper bound of bucket b in nanoseconds
// (0 for bucket 0, 2^b-1 otherwise; the tail bucket has no finite bound and
// reports the maximum int64).
func BucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(uint64(1)<<uint(b) - 1)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the folded buckets,
// reporting the upper bound of the bucket containing that rank — a
// conservative (never underestimating) HDR-style readout.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return BucketUpper(b)
		}
	}
	return BucketUpper(len(s.Buckets) - 1)
}

// Mean returns the average observation in nanoseconds.
func (s HistSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}
