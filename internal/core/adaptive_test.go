package core

import (
	"testing"

	"repro/internal/jthread"
)

// adaptiveCfg returns a config with a tiny window so tests trip quickly.
func adaptiveCfg() *Config {
	cfg := *DefaultConfig
	cfg.Adaptive = true
	cfg.AdaptiveWindow = 8
	cfg.AdaptiveFailurePct = 50
	cfg.AdaptiveBackoffOps = 16
	return &cfg
}

func TestAdaptiveTripsUnderFailureStorm(t *testing.T) {
	vm := jthread.NewVM()
	l := New(adaptiveCfg())
	reader := vm.Attach("reader")
	writer := vm.Attach("writer")

	// Every speculative execution is invalidated by an in-section write.
	for i := 0; i < 8; i++ {
		l.ReadOnly(reader, func() {
			if !l.HeldBy(reader) { // skip during fallback re-execution
				l.Lock(writer)
				l.Unlock(writer)
			}
		})
	}
	if l.Stats().AdaptiveTrips.Load() == 0 {
		t.Fatalf("adaptive backoff never tripped: %+v", l.Stats().Snapshot())
	}

	// During backoff, read sections go through the lock: no speculation.
	attemptsBefore := l.Stats().ElisionAttempts.Load()
	for i := 0; i < 10; i++ {
		l.ReadOnly(reader, func() {})
	}
	if l.Stats().ElisionAttempts.Load() != attemptsBefore {
		t.Fatalf("speculation attempted during backoff")
	}
	if l.Stats().AdaptiveSkips.Load() < 10 {
		t.Fatalf("skips = %d", l.Stats().AdaptiveSkips.Load())
	}
}

func TestAdaptiveRecoversAfterBackoff(t *testing.T) {
	vm := jthread.NewVM()
	l := New(adaptiveCfg())
	reader := vm.Attach("reader")
	writer := vm.Attach("writer")
	for i := 0; i < 8; i++ {
		l.ReadOnly(reader, func() {
			if !l.HeldBy(reader) {
				l.Lock(writer)
				l.Unlock(writer)
			}
		})
	}
	if l.Stats().AdaptiveTrips.Load() == 0 {
		t.Fatalf("setup: no trip")
	}
	// Exhaust the backoff credits.
	for i := 0; i < 16; i++ {
		l.ReadOnly(reader, func() {})
	}
	// Elision must resume.
	attemptsBefore := l.Stats().ElisionAttempts.Load()
	l.ReadOnly(reader, func() {})
	if l.Stats().ElisionAttempts.Load() != attemptsBefore+1 {
		t.Fatalf("speculation did not resume after backoff drained")
	}
	if l.Stats().ElisionSuccesses.Load() == 0 {
		t.Fatalf("no successful elision after recovery")
	}
}

func TestAdaptiveDoesNotTripOnCleanWorkload(t *testing.T) {
	vm := jthread.NewVM()
	l := New(adaptiveCfg())
	th := vm.Attach("t")
	for i := 0; i < 100; i++ {
		l.ReadOnly(th, func() {})
	}
	if l.Stats().AdaptiveTrips.Load() != 0 {
		t.Fatalf("tripped with zero failures")
	}
	if l.Stats().AdaptiveSkips.Load() != 0 {
		t.Fatalf("skipped with zero failures")
	}
}

func TestAdaptiveOffByDefault(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	reader := vm.Attach("reader")
	writer := vm.Attach("writer")
	for i := 0; i < 300; i++ {
		l.ReadOnly(reader, func() {
			if !l.HeldBy(reader) {
				l.Lock(writer)
				l.Unlock(writer)
			}
		})
	}
	if l.Stats().AdaptiveTrips.Load() != 0 || l.Stats().AdaptiveSkips.Load() != 0 {
		t.Fatalf("adaptive machinery active without the flag")
	}
}

// TestAdaptiveReadMostly: read-mostly sections feed the adaptive window
// and honour its backoff like read-only ones. A failure storm trips the
// gate; during the backoff a section runs holding the lock from its first
// statement, with no speculation attempted.
func TestAdaptiveReadMostly(t *testing.T) {
	vm := jthread.NewVM()
	l := New(adaptiveCfg())
	reader := vm.Attach("reader")
	writer := vm.Attach("writer")
	for i := 0; i < 8; i++ {
		l.ReadMostly(reader, func(s *Section) {
			if !s.Holding() { // skip during fallback re-execution
				l.Lock(writer)
				l.Unlock(writer)
			}
		})
	}
	st := l.Stats()
	if st.AdaptiveTrips.Load() == 0 {
		t.Fatalf("adaptive backoff never tripped: %v", st.Snapshot())
	}
	attemptsBefore := st.ElisionAttempts.Load()
	for i := 0; i < 10; i++ {
		l.ReadMostly(reader, func(s *Section) {
			if !s.Holding() || !l.HeldBy(reader) {
				t.Fatal("a section in the backoff window must run holding the lock")
			}
		})
	}
	if st.ElisionAttempts.Load() != attemptsBefore {
		t.Fatalf("speculation attempted during backoff: %v", st.Snapshot())
	}
	if st.AdaptiveSkips.Load() < 10 {
		t.Fatalf("skips = %d, want at least 10", st.AdaptiveSkips.Load())
	}
}
