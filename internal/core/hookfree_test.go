package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// The tests in this file run on locks whose config wires no hook, so
// ReadOnly takes its hook-free first attempt. The schedule and history
// oracles always wire Sched or History and never reach that arm; a metered
// lock's unsampled sections do (TestHookFreeAbortTaxonomyExactlyOnce).

func TestDefaultConfigIsHookFree(t *testing.T) {
	if l := New(nil); !l.hookFree || l.metered {
		t.Fatal("the nil config must take ReadOnly's hook-free first attempt, unmetered")
	}
	for _, tc := range []struct {
		name              string
		mut               func(*Config)
		hookFree, metered bool
	}{
		// A metrics registry keeps the attempt: only sampled sections
		// leave it.
		{"metrics", func(c *Config) { c.Metrics = metrics.New(1) }, true, true},
		{"disableElision", func(c *Config) { c.DisableElision = true }, false, false},
		{"sched", func(c *Config) { c.Sched = sched.NewScheduler(&phasedStrategy{}, 0).Hooks() }, false, false},
		{"history", func(c *Config) { c.History = history.New() }, false, false},
	} {
		cfg := *DefaultConfig
		tc.mut(&cfg)
		l := New(&cfg)
		if l.hookFree != tc.hookFree || l.metered != tc.metered {
			t.Errorf("%s config: hookFree %v, metered %v; want %v, %v", tc.name, l.hookFree, l.metered, tc.hookFree, tc.metered)
		}
	}
}

// checkAttemptsDerived asserts the derived attempts counter equals the sum
// of the read-only terminal outcomes at quiescence.
func checkAttemptsDerived(t *testing.T, st *Stats) {
	t.Helper()
	got := st.ElisionAttempts.Load()
	want := st.ElisionSuccesses.Load() + st.ElisionFailures.Load() + st.GenuineFaults.Load()
	if got != want {
		t.Fatalf("ElisionAttempts = %d, want successes+failures+genuineFaults = %d (%v)", got, want, st.Snapshot())
	}
}

// TestHookFreeReadersBesideWriters runs eliding readers against writers
// that keep a == b under the lock. A body that sees the pair torn panics;
// the panic must be suppressed and retried, and no reader may return a
// torn pair.
func TestHookFreeReadersBesideWriters(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	var a, b atomic.Uint64
	var torn atomic.Int64
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			th := vm.Attach("w")
			defer th.Detach()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Sync(th, func() {
					a.Add(1)
					b.Add(1)
				})
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			th := vm.Attach("r")
			defer th.Detach()
			for i := 0; i < 3000; i++ {
				var ga, gb uint64
				l.ReadOnly(th, func() {
					ga = a.Load()
					gb = b.Load()
					if ga != gb {
						panic("torn pair")
					}
				})
				if ga != gb {
					torn.Add(1)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn reads escaped", n)
	}
	st := l.Stats()
	if st.ElisionSuccesses.Load() == 0 {
		t.Fatal("no reader elided")
	}
	if st.GenuineFaults.Load() != 0 {
		t.Fatalf("a torn-state panic was classified genuine: %v", st.Snapshot())
	}
	checkAttemptsDerived(t, st)
}

// TestHookFreeFirstAttemptFailures pins each way the hook-free first
// attempt can fail, and the handoff to the loop both when the failure
// budget is spent (fallback holding the lock) and when it is not
// (speculate again).
func TestHookFreeFirstAttemptFailures(t *testing.T) {
	type want struct{ successes, fallbacks, suppressed, async uint64 }
	cases := []struct {
		name        string
		maxFailures int
		body        func(l *Lock, th, w *jthread.Thread, a, b *atomic.Uint64)
		want        want
		// leanSafe: the body neither faults nor checkpoints, so the
		// frameless lean section can run it too.
		leanSafe bool
	}{
		{
			name:        "torn panic suppressed, fallback",
			maxFailures: 1,
			body: func(l *Lock, th, w *jthread.Thread, a, b *atomic.Uint64) {
				ga := a.Load()
				l.Sync(w, func() { a.Add(1); b.Add(1) })
				if ga != b.Load() {
					panic("torn pair")
				}
			},
			want: want{fallbacks: 1, suppressed: 1},
		},
		{
			name:        "torn panic suppressed, speculative retry",
			maxFailures: 3,
			body: func(l *Lock, th, w *jthread.Thread, a, b *atomic.Uint64) {
				ga := a.Load()
				l.Sync(w, func() { a.Add(1); b.Add(1) })
				if ga != b.Load() {
					panic("torn pair")
				}
			},
			want: want{successes: 1, suppressed: 1},
		},
		{
			name:        "async abort, fallback",
			maxFailures: 1,
			body: func(l *Lock, th, w *jthread.Thread, a, b *atomic.Uint64) {
				l.Sync(w, func() {})
				th.Poke()
				th.Checkpoint()
			},
			want: want{fallbacks: 1, async: 1},
		},
		{
			name:        "async abort, speculative retry",
			maxFailures: 3,
			body: func(l *Lock, th, w *jthread.Thread, a, b *atomic.Uint64) {
				l.Sync(w, func() {})
				th.Poke()
				th.Checkpoint()
			},
			want: want{successes: 1, async: 1},
		},
		{
			name:        "changed word, fallback",
			maxFailures: 1,
			body: func(l *Lock, th, w *jthread.Thread, a, b *atomic.Uint64) {
				l.Sync(w, func() {})
			},
			want:     want{fallbacks: 1},
			leanSafe: true,
		},
		{
			name:        "changed word, speculative retry",
			maxFailures: 3,
			body: func(l *Lock, th, w *jthread.Thread, a, b *atomic.Uint64) {
				l.Sync(w, func() {})
			},
			want:     want{successes: 1},
			leanSafe: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, entry := range hookFreeEntries {
				if entry.lean && !tc.leanSafe {
					continue
				}
				t.Run(entry.name, func(t *testing.T) {
					cfg := *DefaultConfig
					cfg.MaxElisionFailures = tc.maxFailures
					l := New(&cfg)
					if !l.hookFree {
						t.Fatal("test config must be hook-free")
					}
					ths := newT(t, 2)
					th, w := ths[0], ths[1]
					var a, b atomic.Uint64
					runs := 0
					var ga, gb uint64
					last := entry.run(l, th, func() int {
						runs++
						if runs == 1 {
							tc.body(l, th, w, &a, &b)
							return runs
						}
						ga, gb = a.Load(), b.Load()
						return runs
					})
					if runs != 2 || last != 2 {
						t.Fatalf("section ran %d times and returned run %d, want 2 and 2 (one failed attempt, one retry)", runs, last)
					}
					if ga != gb {
						t.Fatalf("retry saw a torn pair: %d != %d", ga, gb)
					}
					if th.SpecDepth() != 0 {
						t.Fatalf("speculative frames leaked: depth %d", th.SpecDepth())
					}
					if l.HeldBy(th) {
						t.Fatal("lock leaked")
					}
					st := l.Stats()
					got := want{st.ElisionSuccesses.Load(), st.Fallbacks.Load(), st.SuppressedFaults.Load(), st.AsyncAborts.Load()}
					if got != tc.want {
						t.Fatalf("got %+v, want %+v", got, tc.want)
					}
					if f := st.ElisionFailures.Load(); f != 1 {
						t.Fatalf("ElisionFailures = %d, want 1", f)
					}
					checkAttemptsDerived(t, st)
				})
			}
		})
	}
}

// hookFreeEntries are the read entries, each with its hook-free first
// attempt: ReadOnly's (runSpeculative), ReadOnlyValue's, whose frame is its
// own, ReadOnlySection under each proof that speculates, and a ReadMostly
// section that does not write (the upgrade-aware frame). Each runs fn as
// one section and returns the value of its final execution. lean marks the
// recovery-free section: it has no frame and no handler, so it cannot
// survive a fault or an asynchronous abort, and the tests run it only
// where its body neither faults nor checkpoints. The first two entries
// alternate in TestNestedFramesPastStackCap.
var hookFreeEntries = []struct {
	name string
	lean bool
	run  func(l *Lock, th *jthread.Thread, fn func() int) int
}{
	{"ReadOnly", false, func(l *Lock, th *jthread.Thread, fn func() int) int {
		var out int
		l.ReadOnly(th, func() { out = fn() })
		return out
	}},
	{"ReadOnlyValue", false, func(l *Lock, th *jthread.Thread, fn func() int) int {
		return ReadOnlyValue(l, th, fn)
	}},
	{"ReadOnlySectionElidable", false, sectionEntry(ProofElidable, false)},
	{"ReadOnlySectionAnnotated", false, sectionEntry(ProofAnnotated, false)},
	{"ReadOnlySectionLean", true, sectionEntry(ProofElidable, true)},
	{"ReadMostlyNoWrite", false, func(l *Lock, th *jthread.Thread, fn func() int) int {
		var out int
		l.ReadMostly(th, func(*Section) { out = fn() })
		return out
	}},
}

// sectionEntry runs fn through ReadOnlySection under a registry-seeded
// proof, with the configured retry bound.
func sectionEntry(proof ProofClass, recoveryFree bool) func(l *Lock, th *jthread.Thread, fn func() int) int {
	info := NewSectionRegistry(false, 0, nil).Seed("hookfree", proof, recoveryFree, 0)
	return func(l *Lock, th *jthread.Thread, fn func() int) int {
		var out int
		l.ReadOnlySection(th, info, func() { out = fn() })
		return out
	}
}

// TestHookFreeGenuineFaultPropagates: a panic raised while the word is
// unchanged is genuine and must escape the hook-free attempt with the
// speculative frame retired.
func TestHookFreeGenuineFaultPropagates(t *testing.T) {
	for _, entry := range hookFreeEntries {
		if entry.lean {
			continue // no handler: a fault is not classified
		}
		t.Run(entry.name, func(t *testing.T) {
			l := New(nil)
			th := newT(t, 1)[0]
			entry.run(l, th, func() int { return 0 }) // one success beside the fault
			r := func() (r any) {
				defer func() { r = recover() }()
				entry.run(l, th, func() int { panic("boom") })
				return nil
			}()
			if r != "boom" {
				t.Fatalf("recovered %v, want the genuine fault", r)
			}
			if th.SpecDepth() != 0 {
				t.Fatalf("speculative frames leaked: depth %d", th.SpecDepth())
			}
			st := l.Stats()
			if st.GenuineFaults.Load() != 1 || st.ElisionSuccesses.Load() != 1 {
				t.Fatalf("counters: %v", st.Snapshot())
			}
			checkAttemptsDerived(t, st)
			if a := st.ElisionAttempts.Load(); a != 2 {
				t.Fatalf("ElisionAttempts = %d, want 2", a)
			}
		})
	}
}

// TestNestedFramesPastStackCap nests more elided sections than the frame
// stack allocated at Attach holds (jthread's frameStackCap: one
// false-sharing range of frames), alternating the first two hook-free
// entries (ReadOnly and ReadOnlyValue), each level on its own lock. The
// stack grows past its initial capacity; an asynchronous abort at the
// deepest level must unwind that level alone — its section retries holding
// its lock — while every enclosing section still elides, and the counts
// stay exact.
func TestNestedFramesPastStackCap(t *testing.T) {
	frameStackCap := stats.FalseSharingRange / int(unsafe.Sizeof(jthread.SpecFrame{}))
	// Two depths, so each entry takes a turn at the innermost level.
	for _, depth := range []int{frameStackCap + 1, frameStackCap + 2} {
		t.Run(hookFreeEntries[(depth-1)%2].name, func(t *testing.T) { nestFrames(t, depth) })
	}
}

func nestFrames(t *testing.T, depth int) {
	ths := newT(t, 2)
	th, w := ths[0], ths[1]
	locks := make([]*Lock, depth)
	for i := range locks {
		locks[i] = New(nil)
	}
	innerRuns, maxDepth := 0, 0
	var enter func(level int) int
	enter = func(level int) int {
		return hookFreeEntries[level%2].run(locks[level], th, func() int {
			maxDepth = max(maxDepth, th.SpecDepth())
			if level < depth-1 {
				return enter(level+1) + 1
			}
			innerRuns++
			if innerRuns == 1 {
				// Change the innermost lock's word, then let an
				// asynchronous event validate every frame.
				locks[level].Sync(w, func() {})
				th.Poke()
				th.Checkpoint()
				t.Fatal("the checkpoint did not abort the stale innermost frame")
			}
			if !locks[level].HeldBy(th) {
				t.Fatal("the innermost retry is not holding its lock")
			}
			return 1
		})
	}
	if got := enter(0); got != depth {
		t.Fatalf("nest returned %d, want %d", got, depth)
	}
	if maxDepth != depth || th.SpecDepth() != 0 {
		t.Fatalf("frame depth peaked at %d (want %d), %d left after", maxDepth, depth, th.SpecDepth())
	}
	if innerRuns != 2 {
		t.Fatalf("innermost section ran %d times, want 2", innerRuns)
	}
	for i, l := range locks {
		snap := l.Stats().Snapshot()
		want := map[string]uint64{"elisionSuccesses": 1, "elisionFailures": 0, "asyncAborts": 0, "fallbacks": 0}
		if i == depth-1 {
			want = map[string]uint64{"elisionSuccesses": 0, "elisionFailures": 1, "asyncAborts": 1, "fallbacks": 1}
		}
		for k, v := range want {
			if snap[k] != v {
				t.Errorf("level %d: %s = %d, want %d (%v)", i, k, snap[k], v, snap)
			}
		}
		checkAttemptsDerived(t, l.Stats())
	}
}

// TestFreshThreadFirstReadOnlyAllocFree: the speculative-frame stack is
// allocated at Attach, so a thread's first elided read allocates nothing.
// A thread's first count on a lock may allocate its counter slot (at most
// one 4-KB page and its index, checked below); each thread here takes its
// slot with a write first, which pushes no speculative frame.
func TestFreshThreadFirstReadOnlyAllocFree(t *testing.T) {
	const runs = 100
	vm := jthread.NewVM()
	ths := make([]*jthread.Thread, runs+1) // AllocsPerRun adds a warm-up call
	l := New(nil)
	for i := range ths {
		ths[i] = vm.Attach("fresh")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, th := range ths {
		l.Sync(th, func() {})
	}
	runtime.ReadMemStats(&m1)
	// The page, the thread's lease and directory, and the registry's
	// amortized growth.
	if b := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(ths)); b > 4096+256 {
		t.Fatalf("a fresh thread's first count allocates %d B, want at most a 4-KB page and its index", b)
	}
	fn := func() {}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		l.ReadOnly(ths[i], fn)
		i++
	})
	if allocs != 0 {
		t.Fatalf("a fresh thread's first ReadOnly allocates %v times", allocs)
	}
}
