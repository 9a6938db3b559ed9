package core

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/stats"
)

// lockLine is the cache line an elided read touches in the Lock itself.
const lockLine = stats.CacheLine

// TestLockLineLayout checks the one-line fast path: the word at offset 0,
// and cfg, saved and the stats stripe header inside the first 64 bytes,
// while every field a non-owner writes (the adaptive gate, the shared
// counters), the monitor table pointer mt and the Counter views start past
// that line.
func TestLockLineLayout(t *testing.T) {
	var l Lock
	if off := unsafe.Offsetof(l.word); off != 0 {
		t.Fatalf("word at offset %d, want 0", off)
	}
	st := unsafe.Offsetof(l.st)
	hot := map[string][2]uintptr{ // offset, size
		"cfg":        {unsafe.Offsetof(l.cfg), unsafe.Sizeof(l.cfg)},
		"saved":      {unsafe.Offsetof(l.saved), unsafe.Sizeof(l.saved)},
		"st.stripes": {st + unsafe.Offsetof(l.st.stripes), unsafe.Sizeof(l.st.stripes)},
		"st.mask":    {st + unsafe.Offsetof(l.st.mask), unsafe.Sizeof(l.st.mask)},
	}
	for name, f := range hot {
		if f[0]+f[1] > lockLine {
			t.Errorf("%s spans [%d,%d), want within the first %d bytes", name, f[0], f[0]+f[1], lockLine)
		}
	}
	cold := map[string]uintptr{
		"mt":        unsafe.Offsetof(l.mt),
		"ad":        unsafe.Offsetof(l.ad),
		"st.shared": st + unsafe.Offsetof(l.st.shared),
	}
	stt := reflect.TypeOf((*Stats)(nil)).Elem()
	for i := 0; i < stt.NumField(); i++ {
		if f := stt.Field(i); f.Type == reflect.TypeOf(Counter{}) {
			cold["st."+f.Name] = st + f.Offset
		}
	}
	if len(cold) != 3+int(numCounters) {
		t.Fatalf("found %d cold fields, want mt, ad, shared and %d views", len(cold), numCounters)
	}
	for name, off := range cold {
		if off < lockLine {
			t.Errorf("field %s at offset %d, want >= %d", name, off, lockLine)
		}
	}
	if sz := unsafe.Sizeof(Counter{}); sz != 16 {
		t.Errorf("Counter view is %d bytes, want 16", sz)
	}
}

// TestStatStripeSize checks the stripe type: exactly one false-sharing
// range, so adjacent stripes never share a line.
func TestStatStripeSize(t *testing.T) {
	if sz := unsafe.Sizeof(statStripe{}); sz != stats.FalseSharingRange {
		t.Fatalf("statStripe is %d bytes, want %d", sz, stats.FalseSharingRange)
	}
	var ss [2]statStripe
	d := uintptr(unsafe.Pointer(&ss[1])) - uintptr(unsafe.Pointer(&ss[0]))
	if d < 128 {
		t.Fatalf("adjacent stripes %d bytes apart, want >= 128", d)
	}
}

// lockSizeClass is the heap size class a Lock rounds up to.
const lockSizeClass = 576

// TestLockFootprint pins what New costs: exactly two allocations (the
// Lock with its embedded Stats, and the stripes) totalling at most the
// size-class budget for the stripe count — 832 B at 2 stripes.
func TestLockFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Lock{}); sz > lockSizeClass {
		t.Fatalf("Lock is %d bytes, over its %d-B size class", sz, lockSizeClass)
	}
	if n := testing.AllocsPerRun(100, func() { New(nil) }); n != 2 {
		t.Fatalf("New(nil) makes %v allocations, want 2", n)
	}
	stripes := New(nil).Stats().NumStripes()
	// Power-of-two multiples of 128 B are exact size classes.
	budget := uint64(lockSizeClass + stripes*stats.FalseSharingRange)

	// Background runtime allocations can only add to a trial: keep the
	// cheapest of a few.
	const n = 1024
	locks := make([]*Lock, n)
	per := ^uint64(0)
	for trial := 0; trial < 3; trial++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range locks {
			locks[i] = New(nil)
		}
		runtime.ReadMemStats(&m1)
		per = min(per, (m1.TotalAlloc-m0.TotalAlloc)/n)
	}
	if per > budget {
		t.Fatalf("New(nil) costs %d B with %d stripes, budget %d B", per, stripes, budget)
	}
	for _, l := range locks {
		if p := uintptr(unsafe.Pointer(&l.st.stripes[0])); p%stats.FalseSharingRange != 0 {
			t.Fatalf("stripes at %#x, not %d-B aligned", p, stats.FalseSharingRange)
		}
	}
}

// TestCounterKeyTable guards the id/key tables against drift: every id has
// a distinct, non-empty Snapshot key.
func TestCounterKeyTable(t *testing.T) {
	seen := map[string]bool{}
	for id := counterID(0); id < numCounters; id++ {
		k := counterKeys[id]
		if k == "" {
			t.Fatalf("counter id %d has no key", id)
		}
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
	}
}
