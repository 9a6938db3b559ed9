package core

import (
	"sync"
	"testing"

	"repro/internal/jthread"
)

// TestSnapshotExactSingleThreaded checks that shard aggregation loses
// nothing when uncontended: a deterministic single-threaded run produces
// exact totals through both the Counter views and Snapshot, and the two
// agree on every key.
func TestSnapshotExactSingleThreaded(t *testing.T) {
	vm := jthread.NewVM()
	l := newCounted()
	th := vm.Attach("t")
	w := vm.Attach("w")

	for i := 0; i < 40; i++ {
		l.ReadOnly(th, func() {}) // elides
	}
	for i := 0; i < 7; i++ {
		l.Sync(th, func() {}) // fast acquires
	}
	for i := 0; i < 3; i++ { // forced elision failures + fallbacks
		l.ReadOnly(th, func() {
			if !l.HeldBy(th) {
				l.Lock(w)
				l.Unlock(w)
			}
		})
	}

	st := l.Stats()
	want := map[string]uint64{
		"elisionAttempts":  43,
		"elisionSuccesses": 40,
		"elisionFailures":  3,
		"fallbacks":        3,
		"fastAcquires":     7 + 3 + 3, // Sync + in-section writer + fallback acquisitions
	}
	snap := st.Snapshot()
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %d, want %d (full: %+v)", k, snap[k], v, snap)
		}
	}
	if got := st.ElisionAttempts.Load(); got != 43 {
		t.Errorf("ElisionAttempts.Load() = %d, want 43", got)
	}
	// Counter views and Snapshot must agree on every key.
	checks := map[string]*Counter{
		"fastAcquires":     &st.FastAcquires,
		"slowAcquires":     &st.SlowAcquires,
		"recursions":       &st.Recursions,
		"spinAcquires":     &st.SpinAcquires,
		"flcWaits":         &st.FLCWaits,
		"inflations":       &st.Inflations,
		"deflations":       &st.Deflations,
		"fatEnters":        &st.FatEnters,
		"elisionAttempts":  &st.ElisionAttempts,
		"elisionSuccesses": &st.ElisionSuccesses,
		"elisionFailures":  &st.ElisionFailures,
		"fallbacks":        &st.Fallbacks,
		"readRecursions":   &st.ReadRecursions,
		"readFatEnters":    &st.ReadFatEnters,
		"suppressedFaults": &st.SuppressedFaults,
		"genuineFaults":    &st.GenuineFaults,
		"asyncAborts":      &st.AsyncAborts,
		"upgrades":         &st.Upgrades,
		"upgradeFailures":  &st.UpgradeFailures,
	}
	if len(checks) != int(numCounters) {
		t.Fatalf("check table covers %d counters, stripe has %d", len(checks), numCounters)
	}
	for k, c := range checks {
		if c.Load() != snap[k] {
			t.Errorf("Counter %q = %d, snapshot says %d", k, c.Load(), snap[k])
		}
	}
}

// TestSnapshotConcurrentWithReaders hammers ReadOnly from many threads
// while Snapshot/FailureRatio run concurrently: aggregation must be
// race-clean (the -race target) and every counter monotone across
// successive snapshots.
func TestSnapshotConcurrentWithReaders(t *testing.T) {
	vm := jthread.NewVM()
	l := newCounted()
	const readers = 6
	const iters = 3000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := vm.Attach("reader")
			defer th.Detach()
			for i := 0; i < iters; i++ {
				if g == 0 && i%64 == 0 {
					l.Sync(th, func() {}) // keep some failures flowing
					continue
				}
				l.ReadOnly(th, func() {})
			}
		}(g)
	}

	var aggWG sync.WaitGroup
	aggWG.Add(1)
	go func() {
		defer aggWG.Done()
		prev := l.Stats().Snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := l.Stats().Snapshot()
			for k, v := range cur {
				if v < prev[k] {
					t.Errorf("counter %q went backwards: %d -> %d", k, prev[k], v)
					return
				}
			}
			if fr := l.Stats().FailureRatio(); fr < 0 || fr > 100 {
				t.Errorf("failure ratio out of range: %f", fr)
				return
			}
			prev = cur
		}
	}()

	wg.Wait()
	close(stop)
	aggWG.Wait()

	st := l.Stats()
	attempts := st.ElisionAttempts.Load()
	if got := st.ElisionSuccesses.Load() + st.ElisionFailures.Load(); got != attempts {
		t.Fatalf("attempts %d != successes+failures %d at quiescence", attempts, got)
	}
	if attempts == 0 {
		t.Fatalf("no speculation happened")
	}
}

// TestSharedCountersReportedOnce pins how the shared (slow-path) counters
// are kept: once per lock, in its cold block, whichever threads count
// them, beside external adjustments; Snapshot reports each exactly once.
// A lock that saw no shared event has no cold block at all.
func TestSharedCountersReportedOnce(t *testing.T) {
	vm := jthread.NewVM()
	l := newCounted()
	for i := 0; i < 4; i++ {
		th := vm.Attach("t")
		for j := 0; j < 5; j++ {
			l.ReadOnly(th, func() {})
		}
		if i == 0 && l.cold.Load() != nil {
			t.Fatal("elided reads rented a cold block")
		}
		l.Lock(th)
		l.Lock(th) // reentrant: a slow acquire and a recursion
		l.Unlock(th)
		l.Unlock(th)
	}
	st := l.Stats()
	st.ElisionAttempts.Add(3) // external adjustment
	st.Inflations.Add(2)

	c := l.cold.Load()
	if c == nil {
		t.Fatal("slow-path events rented no cold block")
	}
	snap := st.Snapshot()
	for k, want := range map[string]uint64{
		"slowAcquires": 4, "recursions": 4, "inflations": 2,
		"fastAcquires": 4, "elisionSuccesses": 20, "elisionAttempts": 4*5 + 3,
	} {
		if snap[k] != want {
			t.Errorf("%q = %d, want %d", k, snap[k], want)
		}
	}
	for id := counterID(0); id < numCounters; id++ {
		if id < numOwned || id == cElisionAttempts {
			continue
		}
		if got := c.c[id].Load(); got != snap[counterKeys[id]] {
			t.Errorf("%q: cold slot %d, Snapshot %d", counterKeys[id], got, snap[counterKeys[id]])
		}
	}
}
