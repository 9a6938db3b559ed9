package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/jthread"
	"repro/internal/lockword"
)

func TestReadMostlyNoWriteElides(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	before := l.Word()
	l.ReadMostly(ths[0], func(s *Section) {
		if s.Holding() {
			t.Errorf("section holding before any write")
		}
	})
	if l.Word() != before {
		t.Fatalf("no-write read-mostly section changed the word")
	}
	if l.Stats().ElisionSuccesses.Load() != 1 {
		t.Fatalf("no-write section not counted as elided")
	}
}

func TestReadMostlyUpgradeInPlace(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	before := lockword.SoleroCounter(l.Word())
	runs := 0
	l.ReadMostly(ths[0], func(s *Section) {
		runs++
		s.BeforeWrite()
		if !s.Holding() || !s.Upgraded() {
			t.Errorf("not holding after BeforeWrite")
		}
		if !l.HeldBy(ths[0]) {
			t.Errorf("lock not actually held after upgrade")
		}
	})
	if runs != 1 {
		t.Fatalf("upgrade should not re-execute: runs=%d", runs)
	}
	if got := lockword.SoleroCounter(l.Word()); got != before+1 {
		t.Fatalf("writing read-mostly section must advance counter: %d -> %d", before, got)
	}
	if l.HeldBy(ths[0]) {
		t.Fatalf("lock leaked after upgraded section")
	}
	if l.Stats().Upgrades.Load() != 1 {
		t.Fatalf("upgrade not counted")
	}
}

func TestReadMostlyUpgradeIdempotent(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	l.ReadMostly(ths[0], func(s *Section) {
		s.BeforeWrite()
		s.BeforeWrite() // second call must be a no-op
	})
	if l.Stats().Upgrades.Load() != 1 {
		t.Fatalf("double upgrade counted: %d", l.Stats().Upgrades.Load())
	}
}

func TestReadMostlyUpgradeFailureReExecutesHolding(t *testing.T) {
	ths := newT(t, 2)
	l := New(nil)
	runs := 0
	l.ReadMostly(ths[0], func(s *Section) {
		runs++
		if runs == 1 {
			// Invalidate the snapshot before the upgrade attempt.
			l.Lock(ths[1])
			l.Unlock(ths[1])
		}
		s.BeforeWrite()
		if !s.Holding() {
			t.Errorf("not holding after BeforeWrite on run %d", runs)
		}
	})
	if runs != 2 {
		t.Fatalf("failed upgrade must re-execute: runs=%d", runs)
	}
	if l.Stats().UpgradeFailures.Load() != 1 {
		t.Fatalf("upgrade failure not counted")
	}
	if l.HeldBy(ths[0]) {
		t.Fatalf("lock leaked")
	}
}

func TestReadMostlyEntryWhileHoldingWritesFreely(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	l.Lock(ths[0])
	l.ReadMostly(ths[0], func(s *Section) {
		if !s.Holding() {
			t.Errorf("reentrant read-mostly section must start holding")
		}
		s.BeforeWrite() // no-op
	})
	if !l.HeldBy(ths[0]) {
		t.Fatalf("outer hold lost")
	}
	l.Unlock(ths[0])
}

func TestReadMostlyGenuinePanicAfterUpgradeReleasesAndPropagates(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	r := func() (r any) {
		defer func() { r = recover() }()
		l.ReadMostly(ths[0], func(s *Section) {
			s.BeforeWrite()
			panic("boom")
		})
		return nil
	}()
	if r != "boom" {
		t.Fatalf("recover = %v", r)
	}
	if l.HeldBy(ths[0]) {
		t.Fatalf("lock leaked after post-upgrade panic")
	}
	if ths[0].SpecDepth() != 0 {
		t.Fatalf("frames leaked")
	}
}

func TestReadMostlyCheckpointAfterUpgradeDoesNotAbort(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	l.ReadMostly(ths[0], func(s *Section) {
		s.BeforeWrite()
		// The word changed (we own it), but the speculative frame was
		// retired at upgrade, so checkpoints must pass.
		ths[0].Poke()
		ths[0].Checkpoint()
	})
	if l.Stats().AsyncAborts.Load() != 0 {
		t.Fatalf("upgraded section wrongly aborted by checkpoint")
	}
}

func TestReadMostlyDisableElision(t *testing.T) {
	cfg := *DefaultConfig
	cfg.DisableElision = true
	ths := newT(t, 1)
	l := New(&cfg)
	l.ReadMostly(ths[0], func(s *Section) {
		if !s.Holding() {
			t.Errorf("unelided section must hold")
		}
		s.BeforeWrite()
	})
	if lockword.SoleroCounter(l.Word()) != 1 {
		t.Fatalf("unelided read-mostly did not take write path")
	}
}

// TestReadMostlyStress mixes read-mostly sections (5% of which write) with
// the invariant pair check.
func TestReadMostlyStress(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	var a, b atomic.Uint64
	var wg sync.WaitGroup
	const goroutines, per = 6, 4000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := vm.Attach("rm")
			defer th.Detach()
			rng := seed*2654435761 + 1
			for i := 0; i < per; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				write := rng%100 < 5
				l.ReadMostly(th, func(s *Section) {
					ga := a.Load()
					if write {
						s.BeforeWrite()
						a.Add(1)
						b.Add(1)
						return
					}
					gb := b.Load()
					if s.Holding() {
						// Re-executed holding: reads are
						// trivially consistent.
						return
					}
					_ = ga
					_ = gb
				})
			}
		}(uint64(g))
	}
	wg.Wait()
	if a.Load() != b.Load() {
		t.Fatalf("invariant broken: a=%d b=%d", a.Load(), b.Load())
	}
	writes := l.Stats().Upgrades.Load() + l.Stats().Fallbacks.Load()
	if writes == 0 {
		t.Fatalf("no writes executed")
	}
}

// TestReadMostlyTornNeverEscapes: like the read-only stress, but the
// readers are read-mostly sections that never write; the writers are
// read-mostly sections that do. A successful non-holding execution must
// never observe a torn pair.
func TestReadMostlyTornNeverEscapes(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	var a, b atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := vm.Attach("w")
		defer th.Detach()
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.ReadMostly(th, func(s *Section) {
				s.BeforeWrite()
				a.Add(1)
				b.Add(1)
			})
		}
	}()
	var readerWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			th := vm.Attach("r")
			defer th.Detach()
			for i := 0; i < 10000; i++ {
				var ga, gb uint64
				l.ReadMostly(th, func(s *Section) {
					ga, gb = a.Load(), b.Load()
				})
				if ga != gb {
					t.Errorf("torn read-mostly observation: %d != %d", ga, gb)
					return
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	wg.Wait()
}

// TestReadMostlyBeforeWriteTwiceAfterFailedUpgrade pins the two
// BeforeWrite edge cases the static beforewrite analyzer reasons about:
// the first execution's upgrade fails (the snapshot is invalidated by
// another thread mid-section), the section unwinds and re-executes
// holding the lock, and calling BeforeWrite again — twice — on the held
// run must be a pure no-op: no second acquisition, no upgrade counted,
// and exactly one counter advance from the held re-execution.
func TestReadMostlyBeforeWriteTwiceAfterFailedUpgrade(t *testing.T) {
	ths := newT(t, 2)
	l := New(nil)
	before := lockword.SoleroCounter(l.Word())
	runs := 0
	l.ReadMostly(ths[0], func(s *Section) {
		runs++
		if runs == 1 {
			// Invalidate the snapshot before the upgrade attempt.
			l.Lock(ths[1])
			l.Unlock(ths[1])
		}
		s.BeforeWrite()
		if !s.Holding() {
			t.Errorf("not holding after BeforeWrite on run %d", runs)
		}
		s.BeforeWrite() // second call must be a no-op in every regime
		if runs == 2 && s.Upgraded() {
			t.Errorf("re-executed section holds from entry; it must not report an in-place upgrade")
		}
		if !l.HeldBy(ths[0]) {
			t.Errorf("lock not actually held inside section on run %d", runs)
		}
	})
	if runs != 2 {
		t.Fatalf("failed upgrade must re-execute exactly once: runs=%d", runs)
	}
	st := l.Stats()
	if got := st.UpgradeFailures.Load(); got != 1 {
		t.Fatalf("upgrade failures = %d, want 1", got)
	}
	if got := st.Upgrades.Load(); got != 0 {
		t.Fatalf("upgrades = %d, want 0 (a failed upgrade must not also count as an upgrade)", got)
	}
	if l.HeldBy(ths[0]) {
		t.Fatalf("lock leaked")
	}
	// One advance from the invalidating Lock/Unlock, one from releasing
	// the held re-execution.
	if got := lockword.SoleroCounter(l.Word()); got != before+2 {
		t.Fatalf("counter advanced %d times, want 2", got-before)
	}
	if ths[0].SpecDepth() != 0 {
		t.Fatalf("speculative frames leaked")
	}
}

// TestReadMostlyTerminalOutcomesDeriveAttempts: every way a speculative
// read-mostly execution can end adds exactly one to the derived
// ElisionAttempts, through exactly one terminal-outcome counter.
func TestReadMostlyTerminalOutcomesDeriveAttempts(t *testing.T) {
	invalidate := func(l *Lock, w *jthread.Thread) { l.Sync(w, func() {}) }
	cases := []struct {
		name    string
		body    func(l *Lock, w *jthread.Thread, s *Section, run int)
		panics  bool
		outcome func(*Stats) *Counter
	}{
		{"success", func(*Lock, *jthread.Thread, *Section, int) {}, false,
			func(st *Stats) *Counter { return &st.ElisionSuccesses }},
		{"failure", func(l *Lock, w *jthread.Thread, _ *Section, run int) {
			if run == 1 {
				invalidate(l, w)
			}
		}, false, func(st *Stats) *Counter { return &st.ElisionFailures }},
		{"in-place upgrade", func(_ *Lock, _ *jthread.Thread, s *Section, _ int) {
			s.BeforeWrite()
		}, false, func(st *Stats) *Counter { return &st.Upgrades }},
		{"failed upgrade, restart", func(l *Lock, w *jthread.Thread, s *Section, run int) {
			if run == 1 {
				invalidate(l, w)
			}
			s.BeforeWrite()
		}, false, func(st *Stats) *Counter { return &st.UpgradeFailures }},
		{"genuine fault before upgrade", func(*Lock, *jthread.Thread, *Section, int) {
			panic("boom")
		}, true, func(st *Stats) *Counter { return &st.GenuineFaults }},
		{"genuine fault after upgrade", func(_ *Lock, _ *jthread.Thread, s *Section, _ int) {
			s.BeforeWrite()
			panic("boom")
		}, true, func(st *Stats) *Counter { return &st.Upgrades }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ths := newT(t, 2)
			l := New(nil)
			run := 0
			r := func() (r any) {
				defer func() { r = recover() }()
				l.ReadMostly(ths[0], func(s *Section) {
					run++
					tc.body(l, ths[1], s, run)
				})
				return nil
			}()
			if (r != nil) != tc.panics {
				t.Fatalf("recovered %v, want panic=%v", r, tc.panics)
			}
			st := l.Stats()
			if got := st.ElisionAttempts.Load(); got != 1 {
				t.Fatalf("ElisionAttempts = %d, want 1 (%v)", got, st.Snapshot())
			}
			if got := tc.outcome(st).Load(); got != 1 {
				t.Fatalf("terminal outcome counted %d times, want 1 (%v)", got, st.Snapshot())
			}
			if l.HeldBy(ths[0]) || ths[0].SpecDepth() != 0 {
				t.Fatalf("lock or frames leaked: held=%v depth=%d", l.HeldBy(ths[0]), ths[0].SpecDepth())
			}
		})
	}
}

// TestReadMostlyNestedSectionsDistinct: the thread reuses Section records
// across read-mostly sections, so a nested section must get its own record
// and leave the enclosing one intact.
func TestReadMostlyNestedSectionsDistinct(t *testing.T) {
	th := newT(t, 1)[0]
	outer, inner := New(nil), New(nil)
	for i := 0; i < 2; i++ { // the second pass runs on reused records
		outer.ReadMostly(th, func(so *Section) {
			inner.ReadMostly(th, func(si *Section) {
				if si == so {
					t.Fatal("nested section shares its enclosing section's record")
				}
				si.BeforeWrite()
			})
			if so.Holding() || so.l != outer {
				t.Fatalf("inner section clobbered the outer one: holding=%v", so.Holding())
			}
			so.BeforeWrite()
		})
	}
	if got := outer.Stats().Upgrades.Load() + inner.Stats().Upgrades.Load(); got != 4 {
		t.Fatalf("upgrades = %d, want 4", got)
	}
	if outer.HeldBy(th) || inner.HeldBy(th) {
		t.Fatal("lock leaked")
	}
}
