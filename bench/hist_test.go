package main

import (
	"math"
	"testing"
)

func TestHistBucketsCoverValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 123456, 1 << 30, histMax} {
		lo, hi := histBounds(histIndex(v))
		if v < lo || v >= hi {
			t.Errorf("value %d in bucket %d = [%d, %d)", v, histIndex(v), lo, hi)
		}
	}
	if got := histIndex(histMax); got != histBuckets-1 {
		t.Errorf("largest value lands in bucket %d, want the last (%d)", got, histBuckets-1)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	var one hist
	one.record(80)
	if got := one.quantile(0.5); got < 80 || got >= 81 {
		t.Errorf("single sample 80: median %v, want within its bucket [80, 81)", got)
	}
}
