package main

import (
	"math"
	"sort"
	"time"

	"ecstore/internal/stats"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// sorted, or 0 when it is empty.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond returns how many samples lie above the nearest-rank
// q-quantile: the number of samples the percentile rests on.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// copyHistogram snapshots h so a later state can be compared with it.
func copyHistogram(hs ...*stats.Histogram) *stats.Histogram {
	c := stats.NewHistogram()
	for _, h := range hs {
		c.Merge(h)
	}
	return c
}

// atMost counts the samples of h whose bucket value is at most v, by
// bisecting over ranks with h.Percentile (the histogram exposes its
// quantile function, not its buckets).
func atMost(h *stats.Histogram, v time.Duration) int64 {
	n := h.Count()
	lo, hi := uint64(0), n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		// Percentile targets rank ceil(p/100*n); aim at mid-0.5 so
		// rounding cannot land on a neighbour.
		if h.Percentile(100*(float64(mid)-0.5)/float64(n)) <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return int64(lo)
}

// windowQuantile returns the q-quantile of the samples recorded in
// after but not in before, where before is an earlier copy of the same
// cumulative histogram. It is accurate to the histogram's bucket
// resolution (about 3%).
func windowQuantile(before, after *stats.Histogram, q float64) time.Duration {
	n := int64(after.Count()) - int64(before.Count())
	if n <= 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	lo, hi := time.Duration(0), after.Max()
	for lo < hi {
		mid := lo + (hi-lo)/2
		if atMost(after, mid)-atMost(before, mid) >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
