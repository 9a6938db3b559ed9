package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jthread"
)

// countedDefault is DefaultConfig, counted.
var countedDefault = CountedConfig(nil)

// newCounted returns a free counted lock: the one helper the exact-count
// tests build their locks with (CountedConfig for a tuned config). The
// counting registry samples no section a test runs, so the hook-free first
// attempt stays the path under test.
func newCounted() *Lock { return New(countedDefault) }

// settledCounterFootprint returns jthread.CounterFootprint once the
// finalizers of locks and threads earlier tests dropped have run: it
// collects until two successive readings agree.
func settledCounterFootprint() (highWater uint32, free, pages int) {
	highWater, free, pages = jthread.CounterFootprint()
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		hw, f, p := jthread.CounterFootprint()
		if hw == highWater && f == free && p == pages {
			break
		}
		highWater, free, pages = hw, f, p
	}
	return
}

// TestUncountedLockWritesNoCounterPage: two threads run elided reads,
// writes, and forced elision failures with their fallbacks on a New(nil)
// lock. The lock never asks for a stats id (so it registers no finalizer),
// no thread touches a counter page, its Stats report the success counters
// as absent, and the failure counts stay exact.
func TestUncountedLockWritesNoCounterPage(t *testing.T) {
	var ids atomic.Int32
	defer func(f func() uint32) { newStatsID = f }(newStatsID)
	newStatsID = func() uint32 { ids.Add(1); return jthread.NewCounterID() }

	hw0, free0, pages0 := settledCounterFootprint()
	vm := jthread.NewVM()
	ths := []*jthread.Thread{vm.Attach("a"), vm.Attach("b")}
	l := New(nil)
	const reads, writes = 100, 10
	for _, th := range ths {
		for i := 0; i < reads; i++ {
			if i%2 == 0 {
				l.ReadOnly(th, func() {})
			} else {
				ReadOnlyValue(l, th, func() int { return i })
			}
		}
		for i := 0; i < writes; i++ {
			l.Sync(th, func() {})
		}
	}
	// Each thread's section fails once, when the other thread writes
	// inside it, and falls back (MaxElisionFailures is 1).
	for i, th := range ths {
		w := ths[1-i]
		l.ReadOnly(th, func() {
			if !l.HeldBy(th) {
				l.Lock(w)
				l.Unlock(w)
			}
		})
	}
	hw1, free1, pages1 := settledCounterFootprint()

	if n := ids.Load(); n != 0 || l.id.Load() != 0 {
		t.Fatalf("uncounted lock asked for a stats id %d times, holds id %d", n, l.id.Load())
	}
	if hw1 != hw0 || free1 != free0 || pages1 != pages0 {
		t.Fatalf("counter footprint moved: high-water %d -> %d, free %d -> %d, pages %d -> %d",
			hw0, hw1, free0, free1, pages0, pages1)
	}
	if n := coldOwned(l); n != 0 {
		t.Fatalf("uncounted lock kept %d success counts in its cold block", n)
	}
	st := l.Stats()
	if st.Counted() {
		t.Fatal("New(nil) lock reports Counted")
	}
	snap := st.Snapshot()
	for _, k := range []string{"elisionSuccesses", "elisionAttempts", "fastAcquires"} {
		if _, ok := snap[k]; ok {
			t.Errorf("uncounted snapshot has %q: %v", k, snap)
		}
	}
	if f, fb := st.ElisionFailures.Load(), st.Fallbacks.Load(); f != 2 || fb != 2 {
		t.Fatalf("ElisionFailures/Fallbacks = %d/%d, want 2/2 (%v)", f, fb, snap)
	}
	if fr := st.FailureRatio(); fr != 0 {
		t.Fatalf("uncounted FailureRatio = %v, want 0", fr)
	}
	if !newCounted().Stats().Counted() {
		t.Fatal("a lock with a metrics registry does not report Counted")
	}
}
