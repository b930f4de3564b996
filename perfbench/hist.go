package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: values below
// 2^mantBits are counted exactly, larger ones in buckets 2^-mantBits wide
// relative to their magnitude (0.4% at mantBits = 8). Quantiles interpolate
// linearly inside the bucket, so a percentile moves continuously with the
// data instead of snapping to bucket edges. Recording is two shifts and an
// increment, with no allocation, so it can sit inside the timed loop.
type hist struct {
	counts []uint32
	n      int64
}

const (
	mantBits   = 8
	mantSize   = 1 << mantBits
	maxExp     = 40 // values up to 2^48 ns (~3 days) are representable
	histBucket = mantSize + maxExp*mantSize
)

func newHist() *hist { return &hist{counts: make([]uint32, histBucket)} }

func histIndex(v int64) int {
	if v < mantSize {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - mantBits - 1
	if exp >= maxExp {
		return histBucket - 1
	}
	return mantSize + exp*mantSize + int(uint64(v)>>exp) - mantSize
}

// bucketRange returns the [lo, hi) value range of bucket i.
func bucketRange(i int) (lo, hi float64) {
	if i < mantSize {
		return float64(i), float64(i + 1)
	}
	exp := (i - mantSize) / mantSize
	m := (i-mantSize)%mantSize + mantSize
	lo = float64(uint64(m) << exp)
	return lo, lo + float64(uint64(1)<<exp)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// addScaled adds every sample of h, multiplied by f, to dst: each bucket's
// count moves to the bucket that holds its scaled midpoint.
func (h *hist) addScaled(dst *hist, f float64) {
	for i, c := range h.counts {
		if c != 0 {
			lo, hi := bucketRange(i)
			dst.counts[histIndex(int64((lo+hi)/2*f))] += c
		}
	}
	dst.n += h.n
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, or NaN when
// the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := bucketRange(histBucket - 1)
	return lo
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}
