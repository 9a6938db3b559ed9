package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/stats"
)

// lockLine is the cache line no lock may straddle.
const lockLine = stats.CacheLine

// lockSize is what a lock is: half a line, one allocation of that size
// class, so a lock's address is lockSize-aligned.
const lockSize = 32

// TestLockLineLayout checks the 32-B lock: the word, cfg, the cold-block
// pointer, the stats id copy and the hookFree/metered flags at the offsets
// the read and write paths were compiled against, and nothing else — the
// owner's local lock variable lives on its thread, and the Counter views in
// the cold block. Each view is one pointer-free byte at its id's place in
// the cold block's view run, which is how a view finds its block.
func TestLockLineLayout(t *testing.T) {
	var l Lock
	fields := []struct {
		name      string
		off, size uintptr
		want      uintptr
	}{
		{"word", unsafe.Offsetof(l.word), unsafe.Sizeof(l.word), 0},
		{"cfg", unsafe.Offsetof(l.cfg), unsafe.Sizeof(l.cfg), 8},
		{"cold", unsafe.Offsetof(l.cold), unsafe.Sizeof(l.cold), 16},
		{"id", unsafe.Offsetof(l.id), unsafe.Sizeof(l.id), 24},
		{"hookFree", unsafe.Offsetof(l.hookFree), unsafe.Sizeof(l.hookFree), 28},
		{"metered", unsafe.Offsetof(l.metered), unsafe.Sizeof(l.metered), 29},
	}
	for _, f := range fields {
		if f.off != f.want {
			t.Errorf("%s at offset %d, want %d", f.name, f.off, f.want)
		}
		if f.off+f.size > lockSize {
			t.Errorf("%s spans [%d,%d), want within %d bytes", f.name, f.off, f.off+f.size, lockSize)
		}
	}
	if n := reflect.TypeOf((*Lock)(nil)).Elem().NumField(); n != len(fields) {
		t.Errorf("Lock has %d fields, want %d", n, len(fields))
	}
	if sz := unsafe.Sizeof(l); sz != lockSize {
		t.Errorf("Lock is %d bytes, want exactly %d", sz, lockSize)
	}
	views := 0
	stt := reflect.TypeOf((*Stats)(nil)).Elem()
	for i := 0; i < stt.NumField(); i++ {
		f := stt.Field(i)
		if f.Type != reflect.TypeOf(Counter{}) {
			t.Errorf("Stats field %s is a %v, want only Counter views", f.Name, f.Type)
			continue
		}
		if id := counterID(views); !strings.EqualFold(counterKeys[id], f.Name) || f.Offset != uintptr(id) {
			t.Errorf("view %s at Stats offset %d, want counter %q at %d", f.Name, f.Offset, counterKeys[id], id)
		}
		views++
	}
	if views != int(numCounters) {
		t.Fatalf("found %d Counter views, want %d", views, numCounters)
	}
	// One byte cannot hold a pointer.
	if sz := unsafe.Sizeof(Counter{}); sz != 1 {
		t.Errorf("Counter view is %d bytes, want 1 (its id, no pointer)", sz)
	}
	lk := New(nil)
	st := lk.Stats()
	for _, c := range []*Counter{&st.FastAcquires, &st.Inflations, &st.ElisionAttempts} {
		if b := c.block(); b != lk.cold.Load() {
			t.Errorf("view %d steps back to %p, want the lock's cold block %p", c.id, b, lk.cold.Load())
		}
	}
}

// newSink keeps the measured lock escaping: New inlines, and a lock that
// never leaves its caller's frame would be built on the stack.
var newSink *Lock

// TestLockFootprint pins what New costs: one allocation of at most 32 B,
// whatever GOMAXPROCS is, each lock 32-B aligned, so no lock straddles a
// cache line.
func TestLockFootprint(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		if n := testing.AllocsPerRun(100, func() { newSink = New(nil) }); n != 1 {
			t.Errorf("GOMAXPROCS %d: New(nil) makes %v allocations, want 1", procs, n)
		}
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
				locks[i] = New(nil)
			}
			runtime.ReadMemStats(&m1)
			per = min(per, (m1.TotalAlloc-m0.TotalAlloc)/n)
		}
		runtime.GOMAXPROCS(prev)
		t.Logf("GOMAXPROCS %d: %d B per lock", procs, per)
		if per > lockSize {
			t.Errorf("GOMAXPROCS %d: New costs %d B, want at most %d", procs, per, lockSize)
		}
		for _, l := range locks {
			p := uintptr(unsafe.Pointer(l))
			if p%lockSize != 0 {
				t.Fatalf("lock at %#x, not %d-B aligned", p, lockSize)
			}
			if p/lockLine != (p+lockSize-1)/lockLine {
				t.Fatalf("lock at %#x straddles a %d-B line", p, lockLine)
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
			&st.ReadFatEnters, &st.ReadRecursions, &st.ElisionAttempts,
		} {
			sink += c.Load()
		}
	})
	if n != 0 {
		t.Fatalf("Stats() and 19 Loads make %v allocations, want 0", n)
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
