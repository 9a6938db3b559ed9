package main

import "math/bits"

// hist is the benchmark's own allocation-free log-linear histogram of
// nanosecond samples: values below 2^histSubBits are exact, above that every
// power-of-two octave splits into 2^histSubBits linear sub-buckets (under
// 0.8% relative width). It is deliberately independent of
// internal/metrics, whose histograms are part of the system under test.
// One goroutine records into a hist; merge after that goroutine stops.
type hist struct {
	count   uint64
	buckets [histBuckets]uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxBits caps samples at 2^histMaxBits-1 ns (about 18 minutes).
	histMaxBits = 40
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
	histMax     = 1<<histMaxBits - 1
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - histSubBits - 1
	return int(exp+1)<<histSubBits + int(v>>exp&(histSub-1))
}

// histBounds returns bucket i's half-open value range [lo, hi).
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i) + 1
	}
	exp := uint(i>>histSubBits) - 1
	lo = (histSub + uint64(i&(histSub-1))) << exp
	return lo, lo + 1<<exp
}

func (h *hist) record(ns int64) {
	v := uint64(max(ns, 0))
	if v > histMax {
		v = histMax
	}
	h.buckets[histIndex(v)]++
	h.count++
}

func (h *hist) merge(o *hist) {
	h.count += o.count
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// quantile returns the value at quantile q, interpolating linearly inside
// the bucket that holds the target rank so that the result is not snapped to
// a bucket edge. 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum uint64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo, hi := histBounds(i)
			frac := (rank - float64(cum)) / float64(n)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
	}
	_, hi := histBounds(histBuckets - 1)
	return float64(hi)
}
