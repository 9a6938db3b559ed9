package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/stats"
)

// lockLine is the cache line an elided read touches in the Lock itself.
const lockLine = stats.CacheLine

// TestLockLineLayout checks the one-line fast path: the word, cfg, saved,
// the hookFree/metered flags and the stats stripe header at the offsets the
// read and write paths were compiled against, all inside the first 64
// bytes, while every field a non-owner writes (the adaptive gate, the
// shared counters) and the Counter views start past that line. Each view is
// one pointer-free byte at its id's place in the view run, which is how a
// view finds its Stats.
func TestLockLineLayout(t *testing.T) {
	var l Lock
	st := unsafe.Offsetof(l.st)
	hot := []struct {
		name      string
		off, size uintptr
		want      uintptr
	}{
		{"word", unsafe.Offsetof(l.word), unsafe.Sizeof(l.word), 0},
		{"cfg", unsafe.Offsetof(l.cfg), unsafe.Sizeof(l.cfg), 8},
		{"saved", unsafe.Offsetof(l.saved), unsafe.Sizeof(l.saved), 16},
		{"hookFree", unsafe.Offsetof(l.hookFree), unsafe.Sizeof(l.hookFree), 24},
		{"metered", unsafe.Offsetof(l.metered), unsafe.Sizeof(l.metered), 25},
		{"st.stripes", st + unsafe.Offsetof(l.st.stripes), unsafe.Sizeof(l.st.stripes), 32},
		{"st.mask", st + unsafe.Offsetof(l.st.mask), unsafe.Sizeof(l.st.mask), 56},
	}
	for _, f := range hot {
		if f.off != f.want {
			t.Errorf("%s at offset %d, want %d", f.name, f.off, f.want)
		}
		if f.off+f.size > lockLine {
			t.Errorf("%s spans [%d,%d), want within the first %d bytes", f.name, f.off, f.off+f.size, lockLine)
		}
	}
	cold := map[string]uintptr{
		"ad":        unsafe.Offsetof(l.ad),
		"st.shared": st + unsafe.Offsetof(l.st.shared),
	}
	views, first := 0, unsafe.Offsetof(l.st.FastAcquires)
	stt := reflect.TypeOf((*Stats)(nil)).Elem()
	for i := 0; i < stt.NumField(); i++ {
		f := stt.Field(i)
		if f.Type != reflect.TypeOf(Counter{}) {
			continue
		}
		cold["st."+f.Name] = st + f.Offset
		if id := counterID(views); !strings.EqualFold(counterKeys[id], f.Name) || f.Offset != first+uintptr(id) {
			t.Errorf("view %s at Stats offset %d, want counter %q at %d", f.Name, f.Offset, counterKeys[id], first+uintptr(id))
		}
		views++
	}
	if views != int(numCounters) {
		t.Fatalf("found %d Counter views, want %d", views, numCounters)
	}
	for name, off := range cold {
		if off < lockLine {
			t.Errorf("field %s at offset %d, want >= %d", name, off, lockLine)
		}
	}
	// One byte cannot hold a pointer.
	if sz := unsafe.Sizeof(Counter{}); sz != 1 {
		t.Errorf("Counter view is %d bytes, want 1 (its id, no pointer)", sz)
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
const lockSizeClass = 208

// TestLockFootprint pins what New costs: exactly two allocations (the
// Lock with its embedded Stats, and the stripes) totalling at most the
// size-class budget for the stripe count: 464 B at 2 stripes, and 8,400 B
// at 64, the cap a host with 64 or more CPUs gets by default.
func TestLockFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Lock{}); sz > lockSizeClass {
		t.Fatalf("Lock is %d bytes, over its %d-B size class", sz, lockSizeClass)
	}
	if n := testing.AllocsPerRun(100, func() { New(nil) }); n != 2 {
		t.Fatalf("New(nil) makes %v allocations, want 2", n)
	}
	for _, stripes := range []int{1, 2, 8, 64} {
		cfg := *DefaultConfig
		cfg.StatsStripes = stripes
		// Power-of-two multiples of 128 B are exact size classes.
		budget := uint64(lockSizeClass + stripes*stats.FalseSharingRange)

		// Background runtime allocations can only add to a trial: keep
		// the cheapest of a few.
		const n = 1024
		locks := make([]*Lock, n)
		per := ^uint64(0)
		for trial := 0; trial < 3; trial++ {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := range locks {
				locks[i] = New(&cfg)
			}
			runtime.ReadMemStats(&m1)
			per = min(per, (m1.TotalAlloc-m0.TotalAlloc)/n)
		}
		t.Logf("%d stripes: %d B per lock", stripes, per)
		if per > budget {
			t.Errorf("New costs %d B with %d stripes, budget %d B", per, stripes, budget)
		}
		for _, l := range locks {
			if l.Stats().NumStripes() != stripes {
				t.Fatalf("lock has %d stripes, want %d", l.Stats().NumStripes(), stripes)
			}
			if p := uintptr(unsafe.Pointer(&l.st.stripes[0])); p%stats.FalseSharingRange != 0 {
				t.Fatalf("stripes at %#x, not %d-B aligned", p, stats.FalseSharingRange)
			}
		}
	}
}

// TestStatsViewAllocFree checks that reading a lock's counters allocates
// nothing: Stats() and a Load of every view, as a caller summing the
// counters of many locks does.
func TestStatsViewAllocFree(t *testing.T) {
	l := New(nil)
	var sink uint64
	n := testing.AllocsPerRun(100, func() {
		st := l.Stats()
		for _, c := range []*Counter{
			&st.FastAcquires, &st.ElisionSuccesses, &st.ElisionFailures, &st.Fallbacks,
			&st.SuppressedFaults, &st.GenuineFaults, &st.AsyncAborts, &st.Upgrades,
			&st.UpgradeFailures, &st.SlowAcquires, &st.Recursions, &st.SpinAcquires,
			&st.FLCWaits, &st.Inflations, &st.Deflations, &st.FatEnters,
			&st.ReadFatEnters, &st.ReadRecursions, &st.AdaptiveTrips, &st.AdaptiveSkips,
			&st.ElisionAttempts,
		} {
			sink += c.Load()
		}
	})
	if n != 0 {
		t.Fatalf("Stats() and 21 Loads make %v allocations, want 0", n)
	}
	_ = sink
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
