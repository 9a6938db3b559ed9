package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/history"
	"repro/internal/lockword"
	"repro/internal/montable"
)

// TestLogReconcilesWithCounters keeps the protocol event log from drifting
// away from the counters: on one lock wired to a lossless log, a run with
// contended writers, failed and successful elisions, recursion-saturation
// inflation, deflation, read-mostly upgrades and Notify/NotifyAll must log
// exactly one event per counted transition, and pair every release with an
// acquire. The lock's monitor table logs nothing (History nil), so every
// event counted is core's own. No section waits: a Wait releases the lock
// into the wait set without a release event.
func TestLogReconcilesWithCounters(t *testing.T) {
	log := history.New()
	cfg := *DefaultConfig
	cfg.Tier1, cfg.Tier2, cfg.Tier3 = 4, 2, 1 // short spins: contention inflates
	cfg.Monitors = montable.New(montable.Config{})
	cfg.History = log
	l := New(&cfg)
	ths := newT(t, 6)

	// Contended phase: four writers keep a == b under the lock; two
	// readers elide (failing whenever a writer gets in) and now and then
	// upgrade a read-mostly section in place.
	var a, b atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				l.Sync(ths[th], func() {
					a.Add(1)
					if i%4 == 0 {
						runtime.Gosched()
					}
					b.Add(1)
				})
			}
		}(w)
	}
	for r := 4; r < 6; r++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if i%20 == 0 {
					l.ReadMostly(ths[th], func(s *Section) {
						s.BeforeWrite()
						a.Add(1)
						b.Add(1)
					})
					continue
				}
				l.ReadOnly(ths[th], func() { _ = a.Load() == b.Load() })
			}
		}(r)
	}
	wg.Wait()

	// Deterministic phase on two threads.
	x, y := ths[0], ths[1]
	runs := 0
	l.ReadOnly(x, func() { // a failed elision, then its fallback
		if runs++; runs == 1 {
			l.Sync(y, func() {})
		}
	})
	l.ReadOnly(x, func() {})
	l.ReadMostly(x, func(s *Section) { s.BeforeWrite() })
	l.Lock(x)
	l.Notify(x)              // flat: no wait set to wake
	l.ReadOnly(x, func() {}) // reentrant read
	// Recursion saturation inflates in place; the last exit deflates.
	for i := 0; i <= lockword.SoleroRecMax; i++ {
		l.Lock(x)
	}
	l.NotifyAll(x)
	l.Notify(x)
	for i := 0; i <= lockword.SoleroRecMax; i++ {
		l.Unlock(x)
	}
	l.Unlock(x)

	st := l.Stats()
	if l.Inflated() || !lockword.SoleroFree(l.Word()) {
		t.Fatalf("lock not free and flat at quiescence: %s", lockword.String(l.Word()))
	}
	for name, c := range map[string]*Counter{
		"ElisionSuccesses": &st.ElisionSuccesses, "ElisionFailures": &st.ElisionFailures,
		"Inflations": &st.Inflations, "Deflations": &st.Deflations, "Upgrades": &st.Upgrades,
	} {
		if c.Load() == 0 {
			t.Fatalf("the run never counted %s — the reconciliation would be vacuous (%v)", name, st.Snapshot())
		}
	}

	got := log.Summary()
	for _, tc := range []struct {
		kind string
		want uint64
	}{
		{"read-ok", st.ElisionSuccesses.Load()},
		{"read-fail", st.ElisionFailures.Load()},
		{"inflate", st.Inflations.Load()},
		{"deflate", st.Deflations.Load()},
		{"upgrade", st.Upgrades.Load()},
		{"release", uint64(got["acquire"])},
		{"notify", 3},
	} {
		if n := uint64(got[tc.kind]); n != tc.want {
			t.Errorf("log has %d %s events, want %d (log %v, counters %v)", n, tc.kind, tc.want, got, st.Snapshot())
		}
	}
	if v := log.Check(); v != nil {
		t.Errorf("the log fails the invariant checker: %v", v)
	}
}
