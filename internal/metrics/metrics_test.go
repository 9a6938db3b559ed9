package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.RecordAbort(1, AbortInflated)
	r.AddOps(0, 10)
	if r.Ops() != 0 || r.AbortCount(AbortInflated) != 0 {
		t.Fatalf("nil registry counted")
	}
	if r.Sites() != nil || r.Histograms() != nil {
		t.Fatalf("nil registry returned data")
	}
	counts := r.AbortCounts()
	if len(counts) != int(NumAbortCauses) {
		t.Fatalf("AbortCounts keys = %d", len(counts))
	}
	for k, v := range counts {
		if v != 0 {
			t.Fatalf("nil registry abort %s = %d", k, v)
		}
	}
}

// TestWaitSeam checks that each wait kind records exactly once: into its
// histogram, and for the park and stall kinds also one taxonomy count and a
// sampled site carrying the dwell. A nil registry reads no clock.
func TestWaitSeam(t *testing.T) {
	var nilReg *Registry
	if got := nilReg.StartWait(); got != 0 {
		t.Fatalf("nil registry StartWait = %d, want 0", got)
	}
	nilReg.EndWait(0, WaitMonitorPark, 0)

	r := New(1)
	r.SetSitePeriod(1)
	cases := []struct {
		kind  WaitKind
		hist  *Histogram
		cause AbortCause
		event bool
	}{
		{WaitAcquire, r.Acquire, 0, false},
		{WaitSpin, r.Spin, 0, false},
		{WaitYield, r.Yield, 0, false},
		{WaitMonitorPark, r.Park, AbortMonitorPark, true},
		{WaitGatePark, r.Park, AbortGatePark, true},
		{WaitSweepStall, r.Sweep, AbortSweepStall, true},
	}
	for _, c := range cases {
		before := c.hist.Snapshot().Count
		start := r.StartWait()
		time.Sleep(10 * time.Microsecond)
		r.EndWait(0, c.kind, start)
		if got := c.hist.Snapshot().Count - before; got != 1 {
			t.Errorf("kind %d: %s gained %d samples, want 1", c.kind, c.hist.Name(), got)
		}
		if c.event && r.AbortCount(c.cause) != 1 {
			t.Errorf("kind %d: %s = %d, want 1", c.kind, c.cause, r.AbortCount(c.cause))
		}
	}
	var events uint64
	for c := AbortCause(0); c < NumAbortCauses; c++ {
		events += r.AbortCount(c)
	}
	if events != 3 {
		t.Fatalf("taxonomy holds %d events, want 3 (the park and stall kinds)", events)
	}
	var nanos [NumAbortCauses]uint64
	for _, s := range r.Sites() {
		for c, n := range s.ByCauseNanos {
			nanos[c] += n
		}
	}
	for _, c := range []AbortCause{AbortMonitorPark, AbortGatePark, AbortSweepStall} {
		if nanos[c] == 0 {
			t.Errorf("no sampled %s site carries its dwell", c)
		}
	}
}

func TestAbortCauseNames(t *testing.T) {
	seen := map[string]bool{}
	for c := AbortCause(0); c < NumAbortCauses; c++ {
		name := c.String()
		if name == "" || strings.Contains(name, "?") {
			t.Fatalf("cause %d unnamed", c)
		}
		if seen[name] {
			t.Fatalf("duplicate cause name %q", name)
		}
		seen[name] = true
	}
	if AbortCause(200).String() != "cause(?)" {
		t.Fatalf("unknown cause string wrong")
	}
}

func TestSamplingPeriod(t *testing.T) {
	r := New(1)
	if got := r.CSSampleMask(); got != DefaultSamplePeriod-1 {
		t.Fatalf("default mask = %d, want %d", got, DefaultSamplePeriod-1)
	}
	r.SetSamplePeriod(8)
	if got := r.CSSampleMask(); got != 7 {
		t.Fatalf("mask for period 8 = %d, want 7", got)
	}
	// Periods round up to the next power of two; the minimum period is 1
	// (mask 0: every section sampled).
	r.SetSamplePeriod(5)
	if got := r.CSSampleMask(); got != 7 {
		t.Fatalf("mask for period 5 = %d, want 7", got)
	}
	r.SetSamplePeriod(0)
	if got := r.CSSampleMask(); got != 0 {
		t.Fatalf("mask for period 0 = %d, want 0", got)
	}
	for i := 0; i < 10; i++ {
		r.EndCS(0, Now())
	}
	if s := r.CSDuration.Snapshot(); s.Count != 10 {
		t.Fatalf("recorded %d sampled sections", s.Count)
	}
}

func TestAbortTaxonomyCounts(t *testing.T) {
	r := New(4)
	r.RecordAbort(0, AbortWriterRaced)
	r.RecordAbort(1, AbortWriterRaced)
	r.RecordAbort(2, AbortAsync)
	r.RecordAbort(3, AbortRecursionOverflow)
	if got := r.AbortCount(AbortWriterRaced); got != 2 {
		t.Fatalf("writer-raced = %d", got)
	}
	counts := r.AbortCounts()
	if counts["writer-raced"] != 2 || counts["async-abort"] != 1 ||
		counts["recursion-overflow"] != 1 || counts["inflated"] != 0 {
		t.Fatalf("counts = %v", counts)
	}
	// Out-of-range causes fold into writer-raced rather than panicking.
	r.RecordAbort(0, AbortCause(99))
	if got := r.AbortCount(AbortWriterRaced); got != 3 {
		t.Fatalf("out-of-range cause not folded: %d", got)
	}
}

// SetSiteSamplePeriodForTest makes every abort sample its site (tests).
func (r *Registry) SetSiteSamplePeriodForTest() { r.sitePeriodMask = 0 }

// TestRegistryConcurrentUse hammers every hot-path entry point from
// concurrent goroutines (run under -race in make race).
func TestRegistryConcurrentUse(t *testing.T) {
	r := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint32) {
			defer wg.Done()
			var tick uint32
			mask := r.CSSampleMask()
			for i := 0; i < 2000; i++ {
				if tick++; tick&mask == 0 {
					r.EndCS(g, Now())
				}
				r.RecordAbort(g, AbortCause(i%int(NumAbortCauses)))
				r.AddOps(g, 1)
				r.EndWait(g, WaitAcquire, r.StartWait())
			}
		}(uint32(g))
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			_ = r.AbortCounts()
			_ = r.CSDuration.Snapshot()
			_ = r.Sites()
			if r.Ops() == 8*2000 {
				return
			}
		}
	}()
	wg.Wait()
	<-readerDone
	if r.Ops() != 8*2000 {
		t.Fatalf("ops = %d", r.Ops())
	}
	var aborts uint64
	for c := AbortCause(0); c < NumAbortCauses; c++ {
		aborts += r.AbortCount(c)
	}
	if aborts != 8*2000 {
		t.Fatalf("aborts = %d", aborts)
	}
	if s := r.Acquire.Snapshot(); s.Count != 8*2000 {
		t.Fatalf("acquire samples = %d", s.Count)
	}
}
