package core

import (
	"sync"
	"testing"

	"repro/internal/jthread"
	"repro/internal/stats"
)

// stripedCfg returns a config with an explicit stripe count.
func stripedCfg(stripes int) *Config {
	cfg := *DefaultConfig
	cfg.StatsStripes = stripes
	return &cfg
}

func TestStatsStripesConfig(t *testing.T) {
	if n := New(stripedCfg(1)).Stats().NumStripes(); n != 1 {
		t.Fatalf("StatsStripes=1 -> %d stripes", n)
	}
	if n := New(stripedCfg(3)).Stats().NumStripes(); n != 4 {
		t.Fatalf("StatsStripes=3 -> %d stripes, want rounded to 4", n)
	}
	if n := New(nil).Stats().NumStripes(); n != stats.DefaultStripeCount() {
		t.Fatalf("default stripes = %d, want %d", n, stats.DefaultStripeCount())
	}
}

// TestSnapshotExactSingleThreaded checks that shard aggregation loses
// nothing when uncontended: a deterministic single-threaded run produces
// exact totals through both the Counter views and Snapshot, and the two
// agree on every key.
func TestSnapshotExactSingleThreaded(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
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
		"adaptiveTrips":    &st.AdaptiveTrips,
		"adaptiveSkips":    &st.AdaptiveSkips,
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

// TestStripeDistribution verifies threads actually spread over stripes:
// with as many stripes as threads, each thread's elisions land in its own
// stripe.
func TestStripeDistribution(t *testing.T) {
	const threads = 4
	vm := jthread.NewVM()
	l := New(stripedCfg(threads))
	for i := 0; i < threads; i++ {
		th := vm.Attach("t")
		for j := 0; j < 10; j++ {
			l.ReadOnly(th, func() {})
		}
	}
	totals := l.Stats().StripeTotals()
	occupied := 0
	for _, n := range totals {
		if n > 0 {
			occupied++
		}
	}
	if occupied != threads {
		t.Fatalf("elisions occupy %d/%d stripes: %v", occupied, threads, totals)
	}
	for i, n := range totals {
		// 10 attempts + 10 successes + nothing else per stripe.
		if n != 20 {
			t.Errorf("stripe %d holds %d events, want 20: %v", i, n, totals)
		}
		if sn := l.Stats().StripeSnapshot(i); sn["elisionAttempts"] != 10 {
			t.Errorf("stripe %d attempts = %d, want 10", i, sn["elisionAttempts"])
		}
	}
}

// TestSnapshotConcurrentWithReaders hammers ReadOnly from many threads
// while Snapshot/FailureRatio run concurrently: aggregation must be
// race-clean (the -race target) and every counter monotone across
// successive snapshots.
func TestSnapshotConcurrentWithReaders(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
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

// TestAdaptiveShardedTrip drives a failure storm through several threads
// (hence several stripes) and checks the per-stripe windows still trip the
// shared backoff gate.
func TestAdaptiveShardedTrip(t *testing.T) {
	cfg := stripedCfg(4)
	cfg.Adaptive = true
	cfg.AdaptiveWindow = 4
	cfg.AdaptiveFailurePct = 50
	cfg.AdaptiveBackoffOps = 16
	vm := jthread.NewVM()
	l := New(cfg)
	readers := make([]*jthread.Thread, 4)
	for i := range readers {
		readers[i] = vm.Attach("reader")
	}
	writer := vm.Attach("writer")

	// Every speculative execution fails; each reader fills its own
	// stripe's window.
	for i := 0; i < 4*4 && l.Stats().AdaptiveTrips.Load() == 0; i++ {
		r := readers[i%4]
		l.ReadOnly(r, func() {
			if !l.HeldBy(r) {
				l.Lock(writer)
				l.Unlock(writer)
			}
		})
	}
	if l.Stats().AdaptiveTrips.Load() == 0 {
		t.Fatalf("sharded windows never tripped: %+v", l.Stats().Snapshot())
	}
	// Backoff is shared: a thread on a *different* stripe skips too.
	attemptsBefore := l.Stats().ElisionAttempts.Load()
	l.ReadOnly(readers[0], func() {})
	l.ReadOnly(readers[3], func() {})
	if l.Stats().ElisionAttempts.Load() != attemptsBefore {
		t.Fatalf("speculation attempted during backoff")
	}
	if l.Stats().AdaptiveSkips.Load() < 2 {
		t.Fatalf("skips = %d", l.Stats().AdaptiveSkips.Load())
	}
}

// TestSingleStripeMatchesSeedSemantics runs the shared-stripe (seed
// layout) configuration through the same deterministic sequence and checks
// totals agree with the sharded default.
func TestSingleStripeMatchesSeedSemantics(t *testing.T) {
	run := func(cfg *Config) map[string]uint64 {
		vm := jthread.NewVM()
		l := New(cfg)
		th := vm.Attach("t")
		w := vm.Attach("w")
		for i := 0; i < 20; i++ {
			l.ReadOnly(th, func() {})
		}
		l.Sync(th, func() {})
		l.ReadOnly(th, func() {
			if !l.HeldBy(th) {
				l.Lock(w)
				l.Unlock(w)
			}
		})
		return l.Stats().Snapshot()
	}
	shared, sharded := run(stripedCfg(1)), run(stripedCfg(8))
	for k, v := range shared {
		if sharded[k] != v {
			t.Errorf("counter %q: shared %d != sharded %d", k, v, sharded[k])
		}
	}
}

// TestSharedCountersReportedOnce pins how the shared (slow-path) counters
// appear in the per-stripe views: absent from every StripeSnapshot and
// StripeTotals entry, present once in SharedSnapshot, and for every key the
// stripes plus the shared block add up to Snapshot.
func TestSharedCountersReportedOnce(t *testing.T) {
	vm := jthread.NewVM()
	l := New(stripedCfg(4))
	for i := 0; i < 4; i++ {
		th := vm.Attach("t")
		for j := 0; j < 5; j++ {
			l.ReadOnly(th, func() {})
		}
		l.Lock(th)
		l.Lock(th) // reentrant: a slow acquire and a recursion
		l.Unlock(th)
		l.Unlock(th)
	}
	st := l.Stats()
	st.ElisionAttempts.Add(3) // external adjustment: the shared slot
	st.Inflations.Add(2)

	shared := st.SharedSnapshot()
	if len(shared) != int(numShared) {
		t.Fatalf("SharedSnapshot has %d keys, want %d: %v", len(shared), numShared, shared)
	}
	for k, want := range map[string]uint64{
		"slowAcquires": 4, "recursions": 4, "inflations": 2, "elisionAttempts": 3,
	} {
		if shared[k] != want {
			t.Errorf("shared %q = %d, want %d", k, shared[k], want)
		}
	}

	sum := map[string]uint64{}
	totals := st.StripeTotals()
	for i := 0; i < st.NumStripes(); i++ {
		sn := st.StripeSnapshot(i)
		var total uint64
		for k, v := range sn {
			if _, isShared := shared[k]; isShared && k != "elisionAttempts" {
				t.Errorf("stripe %d reports shared counter %q", i, k)
			}
			sum[k] += v
			total += v
		}
		if total != totals[i] {
			t.Errorf("stripe %d: StripeTotals %d != snapshot sum %d", i, totals[i], total)
		}
	}
	for k, v := range shared {
		sum[k] += v
	}
	snap := st.Snapshot()
	if len(sum) != len(snap) {
		t.Fatalf("stripes+shared cover %d keys, Snapshot %d", len(sum), len(snap))
	}
	for k, v := range snap {
		if sum[k] != v {
			t.Errorf("%q: stripes+shared = %d, Snapshot = %d", k, sum[k], v)
		}
	}
	if snap["elisionAttempts"] != 4*5+3 {
		t.Errorf("elisionAttempts = %d, want 23", snap["elisionAttempts"])
	}
}
