package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/monitor"
	"repro/internal/montable"
)

func newT(t *testing.T, n int) []*jthread.Thread {
	t.Helper()
	vm := jthread.NewVM()
	ths := make([]*jthread.Thread, n)
	for i := range ths {
		ths[i] = vm.Attach("t")
	}
	return ths
}

func TestWriteLockUnlockAdvancesCounter(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	start := lockword.SoleroCounter(l.Word())
	for i := 1; i <= 5; i++ {
		l.Lock(ths[0])
		if !l.HeldBy(ths[0]) {
			t.Fatalf("not held after Lock")
		}
		l.Unlock(ths[0])
		if got := lockword.SoleroCounter(l.Word()); got != start+uint64(i) {
			t.Fatalf("counter = %d after %d sections, want %d", got, i, start+uint64(i))
		}
	}
	if !lockword.SoleroFree(l.Word()) {
		t.Fatalf("word not free: %#x", l.Word())
	}
}

func TestWriteReentrancy(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	const depth = 8
	for i := 0; i < depth; i++ {
		l.Lock(ths[0])
	}
	if got := lockword.SoleroRec(l.Word()); got != depth-1 {
		t.Fatalf("rec = %d, want %d", got, depth-1)
	}
	for i := 0; i < depth; i++ {
		l.Unlock(ths[0])
	}
	if got := lockword.SoleroCounter(l.Word()); got != 1 {
		t.Fatalf("counter = %d, want 1 (one writing section regardless of depth)", got)
	}
}

func TestRecursionSaturationInflatesAndReleasesCleanly(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	n := int(lockword.SoleroRecMax) + 3
	for i := 0; i <= n; i++ {
		l.Lock(ths[0])
	}
	if !l.Inflated() {
		t.Fatalf("no inflation at recursion saturation")
	}
	for i := 0; i <= n; i++ {
		if !l.HeldBy(ths[0]) {
			t.Fatalf("ownership lost during unwind")
		}
		l.Unlock(ths[0])
	}
	if l.HeldBy(ths[0]) {
		t.Fatalf("held after full unwind")
	}
	// Deflation must have republished a counter *different* from the
	// pre-inflation one, so elided readers spanning the episode fail.
	if l.Inflated() {
		t.Fatalf("did not deflate")
	}
	if got := lockword.SoleroCounter(l.Word()); got == 0 {
		t.Fatalf("deflated counter must have advanced, got %d", got)
	}
}

func TestReadOnlyElidesWithoutWritingWord(t *testing.T) {
	ths := newT(t, 1)
	l := newCounted()
	before := l.Word()
	ran := 0
	l.ReadOnly(ths[0], func() { ran++ })
	if ran != 1 {
		t.Fatalf("section ran %d times, want 1", ran)
	}
	if l.Word() != before {
		t.Fatalf("read-only section changed the lock word: %#x -> %#x", before, l.Word())
	}
	st := l.Stats()
	if st.ElisionSuccesses.Load() != 1 || st.ElisionAttempts.Load() != 1 {
		t.Fatalf("elision not counted: %+v", st.Snapshot())
	}
}

func TestReadOnlyValueHelper(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	got := ReadOnlyValue(l, ths[0], func() int { return 42 })
	if got != 42 {
		t.Fatalf("ReadOnlyValue = %d", got)
	}
}

func TestReadOnlyDetectsConcurrentWriterAndFallsBack(t *testing.T) {
	ths := newT(t, 2)
	l := New(nil)
	runs := 0
	l.ReadOnly(ths[0], func() {
		runs++
		if runs == 1 {
			// A writer intervenes during the first speculative run.
			l.Lock(ths[1])
			l.Unlock(ths[1])
		}
	})
	// Paper default: one failure, then fallback under the real lock.
	if runs != 2 {
		t.Fatalf("section ran %d times, want 2 (speculative + fallback)", runs)
	}
	st := l.Stats()
	if st.ElisionFailures.Load() != 1 || st.Fallbacks.Load() != 1 {
		t.Fatalf("failure/fallback miscounted: %+v", st.Snapshot())
	}
}

func TestReadOnlyRetryBeforeFallbackConfigurable(t *testing.T) {
	cfg := *DefaultConfig
	cfg.MaxElisionFailures = 3
	ths := newT(t, 2)
	l := New(CountedConfig(&cfg))
	runs := 0
	l.ReadOnly(ths[0], func() {
		runs++
		if runs <= 2 {
			l.Lock(ths[1])
			l.Unlock(ths[1])
		}
	})
	// Two dirty speculative runs, then a clean speculative run.
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
	if l.Stats().Fallbacks.Load() != 0 {
		t.Fatalf("fell back despite retries remaining")
	}
	if l.Stats().ElisionSuccesses.Load() != 1 {
		t.Fatalf("final run not counted as success")
	}
}

func TestReadOnlyReentrantInsideWriteSection(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	l.Lock(ths[0])
	ran := false
	l.ReadOnly(ths[0], func() {
		ran = true
		if !l.HeldBy(ths[0]) {
			t.Errorf("should hold lock inside reentrant read section")
		}
	})
	if !ran {
		t.Fatalf("nested section did not run")
	}
	if !l.HeldBy(ths[0]) {
		t.Fatalf("nested read exit released the outer hold")
	}
	l.Unlock(ths[0])
	if l.Stats().ReadRecursions.Load() != 1 {
		t.Fatalf("read recursion not counted")
	}
}

func TestWriteReentrantInsideFallbackReadSection(t *testing.T) {
	ths := newT(t, 2)
	l := New(nil)
	runs := 0
	l.ReadOnly(ths[0], func() {
		runs++
		if runs == 1 {
			l.Lock(ths[1])
			l.Unlock(ths[1])
			return
		}
		// Second run executes under the lock (fallback); a nested
		// writing section must be a plain recursion.
		l.Lock(ths[0])
		l.Unlock(ths[0])
	})
	if runs != 2 {
		t.Fatalf("runs = %d", runs)
	}
	if l.HeldBy(ths[0]) {
		t.Fatalf("lock leaked")
	}
}

func TestNestedSpeculativeSectionsOnDistinctLocks(t *testing.T) {
	ths := newT(t, 1)
	a, b := New(nil), New(nil)
	depth := 0
	a.ReadOnly(ths[0], func() {
		b.ReadOnly(ths[0], func() { depth = ths[0].SpecDepth() })
	})
	if depth != 2 {
		t.Fatalf("SpecDepth inside nested sections = %d, want 2", depth)
	}
	if ths[0].SpecDepth() != 0 {
		t.Fatalf("frames leaked: %d", ths[0].SpecDepth())
	}
}

func TestGenuinePanicPropagatesOnce(t *testing.T) {
	ths := newT(t, 1)
	l := New(nil)
	runs := 0
	err := func() (r any) {
		defer func() { r = recover() }()
		l.ReadOnly(ths[0], func() {
			runs++
			panic("genuine NPE")
		})
		return nil
	}()
	if err != "genuine NPE" {
		t.Fatalf("recover = %v", err)
	}
	if runs != 1 {
		t.Fatalf("genuine fault retried: runs = %d", runs)
	}
	if l.Stats().GenuineFaults.Load() != 1 {
		t.Fatalf("genuine fault not counted")
	}
	if ths[0].SpecDepth() != 0 {
		t.Fatalf("frames leaked after genuine panic")
	}
}

// TestPanicOnHoldingArmsReleasesTheLock panics in the body of a read
// section on each arm that runs it holding the lock, through ReadOnly and
// ReadOnlyValue alike: the panic must propagate exactly once, leave no
// speculative frame behind, and release exactly the hold the section took.
func TestPanicOnHoldingArmsReleasesTheLock(t *testing.T) {
	entries := []struct {
		name string
		run  func(l *Lock, th *jthread.Thread, body func())
	}{
		{"ReadOnly", func(l *Lock, th *jthread.Thread, body func()) { l.ReadOnly(th, body) }},
		{"ReadOnlyValue", func(l *Lock, th *jthread.Thread, body func()) {
			ReadOnlyValue(l, th, func() int { body(); return 0 })
		}},
	}
	arms := []struct {
		name  string
		runs  int // executions of the body, the panicking one last
		setup func(t *testing.T, th, other *jthread.Thread) *armState
		// body runs before the panic in each execution and reports
		// whether this execution is the one that panics.
		body  func(a *armState, th, other *jthread.Thread) bool
		check func(t *testing.T, a *armState, th, other *jthread.Thread)
	}{
		{
			// A writer fails the speculation; the fallback
			// (readFallback → runHeld) runs the body holding the lock.
			name: "fallback", runs: 2,
			setup: func(t *testing.T, th, other *jthread.Thread) *armState {
				return &armState{l: New(nil)}
			},
			body: func(a *armState, th, other *jthread.Thread) bool {
				if !a.l.HeldBy(th) {
					a.l.Lock(other)
					a.l.Unlock(other)
					return false
				}
				a.saved = a.l.saved
				return true
			},
			check: checkFlatReleased,
		},
		{
			// DisableElision sends the section straight to the writing
			// protocol (readLoop → runHeld).
			name: "disableElision", runs: 1,
			setup: func(t *testing.T, th, other *jthread.Thread) *armState {
				cfg := *DefaultConfig
				cfg.DisableElision = true
				return &armState{l: New(&cfg)}
			},
			body: func(a *armState, th, other *jthread.Thread) bool {
				a.saved = a.l.saved
				return a.l.HeldBy(th)
			},
			check: checkFlatReleased,
		},
		{
			// A read inside the caller's own writing section is a
			// recursion (runHolding).
			name: "reentrant", runs: 1,
			setup: func(t *testing.T, th, other *jthread.Thread) *armState {
				a := &armState{l: New(nil)}
				a.l.Lock(th)
				a.l.Lock(th)
				a.before = a.l.Word()
				return a
			},
			body: func(a *armState, th, other *jthread.Thread) bool {
				return lockword.SoleroRec(a.l.Word()) == lockword.SoleroRec(a.before)+1
			},
			check: func(t *testing.T, a *armState, th, other *jthread.Thread) {
				if w := a.l.Word(); w != a.before {
					t.Fatalf("word = %#x after the panic, want the caller's depth-1 hold %#x", w, a.before)
				}
				a.l.Unlock(th)
				a.l.Unlock(th)
				if !lockword.SoleroFree(a.l.Word()) {
					t.Fatalf("word = %#x after the caller's unlocks, want free", a.l.Word())
				}
			},
		},
		{
			// A read entering an inflated lock runs holding its
			// monitor (runHolding). Deflate is off, so the word stays
			// fat until the table's sweeper demotes it.
			name: "fat", runs: 1,
			setup: func(t *testing.T, th, other *jthread.Thread) *armState {
				tb := montable.New(montable.Config{Shards: 1, IdleEpochs: 1})
				cfg := newTableCfg(tb)
				cfg.Deflate = false
				a := &armState{l: New(cfg), tb: tb}
				for i := 0; i <= int(lockword.SoleroRecMax)+1; i++ {
					a.l.Lock(th)
				}
				for i := 0; i <= int(lockword.SoleroRecMax)+1; i++ {
					a.l.Unlock(th)
				}
				if !a.l.Inflated() {
					t.Fatalf("setup: word = %#x, want inflated", a.l.Word())
				}
				return a
			},
			body: func(a *armState, th, other *jthread.Thread) bool {
				return a.l.HeldBy(th)
			},
			check: func(t *testing.T, a *armState, th, other *jthread.Thread) {
				if a.l.HeldBy(th) {
					t.Fatal("the panicking reader still holds the monitor")
				}
				entered := make(chan struct{})
				go func() {
					a.l.Lock(other)
					a.l.Unlock(other)
					close(entered)
				}()
				select {
				case <-entered:
				case <-time.After(10 * time.Second):
					t.Fatal("another thread cannot enter the monitor after the panic")
				}
				for i := 0; i < 3; i++ {
					a.tb.Sweep(th.ID())
				}
				if st := a.tb.Snapshot(); st.Pinned != 0 || st.SweepSkipPinned != 0 {
					t.Fatalf("monitor entry still pinned after sweeps: %+v", st)
				}
				if w := a.l.Word(); !lockword.SoleroFree(w) {
					t.Fatalf("word = %#x after sweeps, want demoted and free", w)
				}
			},
		},
	}
	for _, e := range entries {
		for _, arm := range arms {
			t.Run(e.name+"/"+arm.name, func(t *testing.T) {
				ths := newT(t, 2)
				th, other := ths[0], ths[1]
				a := arm.setup(t, th, other)
				runs, panics := 0, 0
				got := func() (r any) {
					defer func() { r = recover() }()
					e.run(a.l, th, func() {
						runs++
						if arm.body(a, th, other) {
							panics++
							panic("holding-arm fault")
						}
					})
					return nil
				}()
				if got != "holding-arm fault" || panics != 1 || runs != arm.runs {
					t.Fatalf("recovered %v after %d panics in %d runs, want the fault once in run %d", got, panics, runs, arm.runs)
				}
				if d := th.SpecDepth(); d != 0 {
					t.Fatalf("SpecDepth = %d after the panic, want 0", d)
				}
				arm.check(t, a, th, other)
			})
		}
	}
}

// armState is one holding-arm case's lock and what its body saw.
type armState struct {
	l      *Lock
	tb     *montable.Table // the fat arm's private monitor table
	before uint64          // the reentrant arm's word before the section
	saved  uint64          // the pre-acquire word a flat held run saw
}

// checkFlatReleased checks that a flat arm's panic released the hold its
// section took: the word is free, one counter unit past the word the hold
// displaced.
func checkFlatReleased(t *testing.T, a *armState, th, other *jthread.Thread) {
	t.Helper()
	if w, want := a.l.Word(), lockword.SoleroNextFree(a.saved); w != want {
		t.Fatalf("word = %#x after the panic, want free at %#x (the held run displaced %#x)", w, want, a.saved)
	}
}

func TestInconsistentPanicSuppressedAndRetried(t *testing.T) {
	ths := newT(t, 2)
	l := New(nil)
	runs := 0
	l.ReadOnly(ths[0], func() {
		runs++
		if runs == 1 {
			// A writer intervenes, making the state inconsistent,
			// and the section then faults.
			l.Lock(ths[1])
			l.Unlock(ths[1])
			panic("fault induced by inconsistent reads")
		}
	})
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
	st := l.Stats()
	if st.SuppressedFaults.Load() != 1 {
		t.Fatalf("suppressed fault not counted: %+v", st.Snapshot())
	}
	if st.GenuineFaults.Load() != 0 {
		t.Fatalf("fault wrongly classified as genuine")
	}
}

func TestAsyncCheckpointAbortsStaleSpeculation(t *testing.T) {
	ths := newT(t, 2)
	l := New(nil)
	runs := 0
	l.ReadOnly(ths[0], func() {
		runs++
		if runs == 1 {
			l.Lock(ths[1])
			l.Unlock(ths[1])
			ths[0].Poke()
			// The loop back-edge checkpoint detects the stale
			// frame and aborts the infinite loop.
			for {
				ths[0].Checkpoint()
			}
		}
	})
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
	if l.Stats().AsyncAborts.Load() != 1 {
		t.Fatalf("async abort not counted")
	}
}

func TestCheckpointOnConsistentSpeculationContinues(t *testing.T) {
	ths := newT(t, 1)
	l := newCounted()
	l.ReadOnly(ths[0], func() {
		ths[0].Poke()
		ths[0].Checkpoint() // consistent: must not abort
	})
	if l.Stats().ElisionSuccesses.Load() != 1 {
		t.Fatalf("consistent checkpointed section did not succeed")
	}
}

func TestUnelidedConfigTakesWritePath(t *testing.T) {
	cfg := *DefaultConfig
	cfg.DisableElision = true
	ths := newT(t, 1)
	l := New(CountedConfig(&cfg))
	before := lockword.SoleroCounter(l.Word())
	l.ReadOnly(ths[0], func() {})
	if got := lockword.SoleroCounter(l.Word()); got != before+1 {
		t.Fatalf("unelided read section must advance the counter: %d -> %d", before, got)
	}
	if l.Stats().ElisionAttempts.Load() != 0 {
		t.Fatalf("unelided config still speculated")
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	ths := newT(t, 2)
	l := New(nil)
	l.Lock(ths[0])
	defer l.Unlock(ths[0])
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	l.Unlock(ths[1])
}

// TestReadConsistencyStress is the central correctness property: a writer
// maintains the invariant a == b inside its critical sections (with a
// deliberately inconsistent intermediate state); every successful ReadOnly
// must observe a == b, never the torn intermediate.
func TestReadConsistencyStress(t *testing.T) {
	vm := jthread.NewVM()
	l := newCounted()
	// Protected by l. The cells are atomic because speculative readers
	// race with the writer's stores by design — the JVM setting gives
	// benign-race semantics to such reads; in Go we get the same defined
	// behavior from sync/atomic (single-word loads/stores, no fences
	// beyond the protocol's own).
	var a, b atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		th := vm.Attach("writer")
		defer th.Detach()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l.Lock(th)
			a.Store(i)
			// Torn state visible to racing speculative readers.
			b.Store(i)
			l.Unlock(th)
		}
	}()

	const readers = 4
	var torn sync.Map
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			th := vm.Attach("reader")
			defer th.Detach()
			for i := 0; i < 20000; i++ {
				var ga, gb uint64
				l.ReadOnly(th, func() {
					ga = a.Load()
					gb = b.Load()
				})
				if ga != gb {
					torn.Store(r, [2]uint64{ga, gb})
					return
				}
			}
		}(r)
	}
	readerWG.Wait()
	close(stop)
	wg.Wait()
	torn.Range(func(k, v any) bool {
		t.Errorf("reader %v observed torn state %v", k, v)
		return true
	})
	if l.Stats().ElisionSuccesses.Load() == 0 {
		t.Fatalf("no elisions succeeded under stress — protocol degenerate")
	}
}

// TestWriterMutualExclusionStress hammers the writing path across flat,
// contended, and fat modes.
func TestWriterMutualExclusionStress(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	var shared int
	const goroutines, per = 8, 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := vm.Attach("w")
			defer th.Detach()
			for i := 0; i < per; i++ {
				l.Lock(th)
				shared++
				l.Unlock(th)
			}
		}()
	}
	wg.Wait()
	if shared != goroutines*per {
		t.Fatalf("lost updates: %d, want %d", shared, goroutines*per)
	}
}

// TestMixedReadersWritersLinearizable: counter increments by writers,
// reads via elision; each reader's observed values must be monotonic.
func TestMixedReadersWritersMonotonic(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	var value atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := vm.Attach("writer")
		defer th.Detach()
		for i := 0; i < 5000; i++ {
			l.Lock(th)
			value.Add(1)
			l.Unlock(th)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := vm.Attach("reader")
			defer th.Detach()
			var last uint64
			for i := 0; i < 5000; i++ {
				got := ReadOnlyValue(l, th, func() uint64 { return value.Load() })
				if got < last {
					t.Errorf("non-monotonic read: %d after %d", got, last)
					return
				}
				last = got
			}
		}()
	}
	wg.Wait()
}

func TestInflationDuringActiveSpeculationFailsReader(t *testing.T) {
	// A reader that speculates across an inflation/deflation episode must
	// fail validation: deflation republishes an advanced counter.
	ths := newT(t, 2)
	cfg := *DefaultConfig
	l := New(&cfg)
	runs := 0
	l.ReadOnly(ths[0], func() {
		runs++
		if runs > 1 {
			return
		}
		// Force an inflation+deflation episode via recursion
		// saturation on another thread.
		n := int(lockword.SoleroRecMax) + 2
		for i := 0; i <= n; i++ {
			l.Lock(ths[1])
		}
		for i := 0; i <= n; i++ {
			l.Unlock(ths[1])
		}
		if lockword.Inflated(l.Word()) {
			t.Errorf("setup: lock still inflated")
		}
	})
	if runs != 2 {
		t.Fatalf("reader did not retry across inflation episode: runs=%d", runs)
	}
}

func TestStatsSnapshotKeys(t *testing.T) {
	l := newCounted()
	snap := l.Stats().Snapshot()
	for _, k := range []string{"fastAcquires", "elisionAttempts", "fallbacks", "upgrades"} {
		if _, okKey := snap[k]; !okKey {
			t.Fatalf("snapshot missing key %q", k)
		}
	}
	if l.Stats().FailureRatio() != 0 {
		t.Fatalf("failure ratio of fresh lock not 0")
	}
}

// TestStrayFLCOnInflatedWord pins the fat-mode livelock fix: a contender's
// FLC Or can land on a word that was inflated after its load. fatEnter
// must still recognise the word as this monitor's, so both contenders get
// through and the last release deflates.
func TestStrayFLCOnInflatedWord(t *testing.T) {
	ths := newT(t, 3)
	l := New(nil)
	l.Lock(ths[0])
	l.inflateAsOwner(ths[0], l.word.Load(), 0)
	l.word.Or(lockword.FLCBit)

	var wg sync.WaitGroup
	for _, th := range ths[1:] {
		wg.Add(1)
		go func(th *jthread.Thread) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Lock(th)
				l.Unlock(th)
			}
		}(th)
	}
	// Release only once both contenders queue on the monitor, so the
	// release cannot deflate the stray bit away. A table monitor is
	// recycled across bindings, so count from its current total.
	m := boundMonitor(l)
	queued := m.StatsSnapshot().ContendedEnters
	for deadline := time.Now().Add(5 * time.Second); m.StatsSnapshot().ContendedEnters < queued+2; {
		if time.Now().After(deadline) {
			t.Fatalf("contenders never queued on the monitor")
		}
		time.Sleep(time.Millisecond)
	}
	l.Unlock(ths[0])

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("contenders livelocked on word %#x", l.Word())
	}
	if w := l.Word(); !lockword.SoleroFree(w) {
		t.Fatalf("lock did not deflate to a free word: %#x", w)
	}
}

// TestReaderDeflatesContendedLock pins the read-side deflation policy: a
// read section that held the fat lock deflates it on exit even with a
// contender queued on the monitor. A queued writer then takes the flat
// lock, and a queued reader elides instead of inflating again.
func TestReaderDeflatesContendedLock(t *testing.T) {
	for _, tc := range []struct {
		name   string
		second func(l *Lock, th *jthread.Thread, inflated *bool)
		want   map[string]uint64
	}{
		{"writer", func(l *Lock, th *jthread.Thread, inflated *bool) {
			l.Sync(th, func() { *inflated = l.Inflated() })
		}, map[string]uint64{"readFatEnters": 1, "inflations": 1, "deflations": 1}},
		{"reader", func(l *Lock, th *jthread.Thread, inflated *bool) {
			l.ReadOnly(th, func() {})
		}, map[string]uint64{"readFatEnters": 1, "inflations": 1, "deflations": 1, "elisionSuccesses": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ths := newT(t, 3)
			l := newCounted()
			l.Lock(ths[0])
			l.inflateAsOwner(ths[0], l.word.Load(), 0)
			m := boundMonitor(l)
			queued := m.StatsSnapshot().ContendedEnters
			waitQueued := func(n uint64) {
				for deadline := time.Now().Add(5 * time.Second); m.StatsSnapshot().ContendedEnters < queued+n; {
					if time.Now().After(deadline) {
						panic("contenders never queued on the monitor")
					}
					time.Sleep(time.Millisecond)
				}
			}
			var inflated bool
			secondDone, firstDone := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(firstDone)
				l.ReadOnly(ths[1], func() {
					// This reader holds the fat lock: queue the
					// second thread behind it before exiting.
					go func() {
						defer close(secondDone)
						tc.second(l, ths[2], &inflated)
					}()
					waitQueued(2)
				})
			}()
			waitQueued(1)
			l.Unlock(ths[0]) // a reader is queued: no deflation here
			<-firstDone
			<-secondDone
			if inflated || l.Inflated() {
				t.Fatalf("the reader's exit did not deflate the lock: %v", l.Stats().Snapshot())
			}
			snap := l.Stats().Snapshot()
			for k, v := range tc.want {
				if snap[k] != v {
					t.Fatalf("%s = %d, want %d: %v", k, snap[k], v, snap)
				}
			}
		})
	}
}

// boundMonitor returns the monitor of l's live table binding, or nil while
// l has none.
func boundMonitor(l *Lock) *monitor.Monitor {
	h, ok := l.table().FindBound(&l.word, 0)
	if !ok {
		return nil
	}
	h.Unpin()
	return h.Mon
}
