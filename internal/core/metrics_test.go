package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/jthread"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// pRunToDone is an unreachable schedule point: a phase targeting it runs its
// thread until the thread leaves the runnable set (ThreadDone or a Block).
const pRunToDone = sched.Point(255)

// schedPhase is one leg of a phased schedule: run tid until it parks at
// until (or retires).
type schedPhase struct {
	tid   uint64
	until sched.Point
}

// phasedStrategy pins an exact interleaving as a sequence of phases, then
// drains the run round-robin. It is the point-aware counterpart of
// sched.Priorities: a phase ends when its thread *arrives somewhere
// specific*, not merely when it blocks.
type phasedStrategy struct {
	phases []schedPhase
	idx    int
	rr     int
}

func (s *phasedStrategy) Pick(_ int, runnable []sched.Runnable) uint64 {
	for s.idx < len(s.phases) {
		ph := s.phases[s.idx]
		present, parked := false, false
		for _, r := range runnable {
			if r.TID == ph.tid {
				present = true
				parked = r.P == ph.until
			}
		}
		if present && !parked {
			return ph.tid
		}
		s.idx++
	}
	pick := runnable[s.rr%len(runnable)].TID
	s.rr++
	return pick
}

// assertAbortCounts checks the full taxonomy in one shot, so a test failure
// shows any cause that leaked, not just the one asserted.
func assertAbortCounts(t *testing.T, reg *metrics.Registry, want map[metrics.AbortCause]uint64) {
	t.Helper()
	for c := metrics.AbortCause(0); c < metrics.NumAbortCauses; c++ {
		if got := reg.AbortCount(c); got != want[c] {
			t.Errorf("abort %s = %d, want %d", c, got, want[c])
		}
	}
}

// TestAbortWriterRacedExactlyOnce forces, via schedule injection, the
// canonical elision failure: the reader snapshots a free word, a complete
// writing section runs inside its speculation window, and validation fails.
// The taxonomy must record exactly one writer-raced abort — not zero, not
// one per retry bookkeeping site.
func TestAbortWriterRacedExactlyOnce(t *testing.T) {
	vm := jthread.NewVM()
	reader := vm.Attach("reader")
	writer := vm.Attach("writer")

	strat := &phasedStrategy{phases: []schedPhase{
		{reader.ID(), sched.PReadEnter}, // snapshot taken, body not yet run
		{writer.ID(), pRunToDone},       // a full writing section races past
		{reader.ID(), pRunToDone},       // validate → fail → abort → fallback
	}}
	s := sched.NewScheduler(strat, 0)
	reg := metrics.New(4)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 1,
		Sched:              s.Hooks(),
		Metrics:            reg,
	})
	s.Register(reader.ID())
	s.Register(writer.ID())
	guard := time.AfterFunc(30*time.Second, s.Stop)
	defer guard.Stop()

	shared := 0
	var wg sync.WaitGroup
	run := func(th *jthread.Thread, body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ThreadStart(th.ID())
			body()
			s.ThreadDone(th.ID())
		}()
	}
	got := -1
	run(reader, func() {
		l.ReadOnly(reader, func() { got = shared })
	})
	run(writer, func() {
		l.Sync(writer, func() { shared = 42 })
	})
	wg.Wait()

	if s.Aborted() {
		t.Fatalf("schedule aborted: %s", sched.FormatTrace(s.Trace()))
	}
	if got != 42 {
		t.Fatalf("reader observed %d; the fallback should see the write", got)
	}
	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{
		metrics.AbortWriterRaced: 1,
	})
	if f := l.Stats().ElisionFailures.Load(); f != 1 {
		t.Fatalf("elision failures = %d, want 1 (abort count must match)", f)
	}
}

// TestAbortLockBitSetExactlyOnce pins the other validation failure: the
// reader validates while the writer still *holds* the lock (parked just
// before its releasing store), so the observed word has the lock bit set.
func TestAbortLockBitSetExactlyOnce(t *testing.T) {
	vm := jthread.NewVM()
	reader := vm.Attach("reader")
	writer := vm.Attach("writer")

	strat := &phasedStrategy{phases: []schedPhase{
		{reader.ID(), sched.PReadEnter},    // snapshot a free word
		{writer.ID(), sched.PRelease},      // acquire, park before releasing
		{reader.ID(), sched.PReadFallback}, // validate against a held word
		{writer.ID(), pRunToDone},          // publish the release
		{reader.ID(), pRunToDone},          // fallback acquires the free lock
	}}
	s := sched.NewScheduler(strat, 0)
	reg := metrics.New(4)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 1,
		Sched:              s.Hooks(),
		Metrics:            reg,
	})
	s.Register(reader.ID())
	s.Register(writer.ID())
	guard := time.AfterFunc(30*time.Second, s.Stop)
	defer guard.Stop()

	var wg sync.WaitGroup
	run := func(th *jthread.Thread, body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ThreadStart(th.ID())
			body()
			s.ThreadDone(th.ID())
		}()
	}
	run(reader, func() {
		l.ReadOnly(reader, func() {})
	})
	run(writer, func() {
		l.Sync(writer, func() {})
	})
	wg.Wait()

	if s.Aborted() {
		t.Fatalf("schedule aborted: %s", sched.FormatTrace(s.Trace()))
	}
	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{
		metrics.AbortLockBitSet: 1,
	})
}

// TestAbortAsyncCause drives an asynchronous checkpoint abort from inside
// the section body — a writing section completes mid-speculation, the
// thread is poked, and the next checkpoint unwinds with an
// InconsistentReadError — and checks it is classified async-abort, not
// writer-raced.
func TestAbortAsyncCause(t *testing.T) {
	vm := jthread.NewVM()
	reader := vm.Attach("reader")
	writer := vm.Attach("writer")
	reg := metrics.New(4)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 2,
		Metrics:            reg,
	})

	first := true
	l.ReadOnly(reader, func() {
		if first {
			first = false
			l.Lock(writer)
			l.Unlock(writer)
			reader.Poke()
			reader.Checkpoint() // validates the stale frame and unwinds
		}
	})

	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{
		metrics.AbortAsync: 1,
	})
	if a := l.Stats().AsyncAborts.Load(); a != 1 {
		t.Fatalf("async aborts = %d, want 1", a)
	}
}

// TestAbortRecursionOverflowAndInflated covers the two "never attempted"
// causes: saturating the flat recursion bits on a reentrant read entry
// forces inflation (recursion-overflow), and — with deflation disabled —
// every later read entry finds a fat word (inflated).
func TestAbortRecursionOverflowAndInflated(t *testing.T) {
	vm := jthread.NewVM()
	th := vm.Attach("owner")
	reg := metrics.New(2)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		Deflate:            false,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 1,
		Metrics:            reg,
	})

	// Saturate the flat recursion field: depth 32 is rec == SoleroRecMax.
	const depth = 32
	for i := 0; i < depth; i++ {
		l.Lock(th)
	}
	ran := false
	l.ReadOnly(th, func() { ran = true })
	if !ran {
		t.Fatalf("read section did not run")
	}
	if !l.Inflated() {
		t.Fatalf("recursion saturation should have inflated the lock")
	}
	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{
		metrics.AbortRecursionOverflow: 1,
	})
	for i := 0; i < depth; i++ {
		l.Unlock(th)
	}

	// Deflation is off, so the word stays fat and elision is impossible.
	if !l.Inflated() {
		t.Fatalf("lock deflated with Deflate disabled")
	}
	l.ReadOnly(th, func() {})
	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{
		metrics.AbortRecursionOverflow: 1,
		metrics.AbortInflated:          1,
	})
}

// TestDwellHistogramsPopulate checks the contention-tier histograms fill in
// under forced contention: a held lock sends a writer through the spin tiers
// and an acquire-latency sample is taken for every slow acquire.
func TestDwellHistogramsPopulate(t *testing.T) {
	vm := jthread.NewVM()
	a := vm.Attach("a")
	b := vm.Attach("b")
	reg := metrics.New(4)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 1,
		Metrics:            reg,
	})

	l.Lock(a)
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Lock(b) // spins, then parks on the FLC bit / monitor
		l.Unlock(b)
	}()
	time.Sleep(20 * time.Millisecond)
	l.Unlock(a)
	<-done

	if s := reg.Acquire.Snapshot(); s.Count == 0 {
		t.Fatalf("no acquire-latency samples under contention")
	}
	if s := reg.Spin.Snapshot(); s.Count == 0 {
		t.Fatalf("no spin-dwell samples under contention")
	}
	// The contender outlives the spin tiers (the owner sleeps), so it must
	// have parked at least once.
	if s := reg.Park.Snapshot(); s.Count == 0 {
		t.Fatalf("no park-dwell samples under contention")
	}
}

// TestCSDurationSampling checks the success-path sampler on both hook-free
// entries: with the period forced to 1 every read-only section contributes
// one duration sample, with period 4 exactly every fourth does — so a
// section ticks the sampler once, whichever arm it then takes — and the
// abort taxonomy stays empty on uncontended success.
func TestCSDurationSampling(t *testing.T) {
	for _, period := range []int{1, 4} {
		for _, entry := range hookFreeEntries {
			t.Run(fmt.Sprintf("period%d/%s", period, entry.name), func(t *testing.T) {
				th := newT(t, 1)[0]
				reg := metrics.New(2)
				reg.SetSamplePeriod(period)
				l := New(&Config{
					Tier1: 8, Tier2: 4, Tier3: 2,
					FLCTimeout:         200 * time.Microsecond,
					MaxElisionFailures: 1,
					Metrics:            reg,
				})
				const n = 100
				for i := 0; i < n; i++ {
					entry.run(l, th, func() int { return i })
				}
				if s := reg.CSDuration.Snapshot(); s.Count != uint64(n/period) {
					t.Fatalf("cs duration samples = %d, want %d", s.Count, n/period)
				}
				if s := l.Stats().ElisionSuccesses.Load(); s != n {
					t.Fatalf("elision successes = %d, want %d", s, n)
				}
				assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{})
			})
		}
	}
}

// TestHookFreeAbortTaxonomyExactlyOnce fails the hook-free first attempt of
// a metered lock each way it can fail. No Sched is wired (every schedule-
// driven TestAbort*ExactlyOnce above wires one, so none reaches this arm),
// and the thread's first section is never sampled, so the failure is
// classified by readRetry: exactly one abort of the expected cause, and the
// taxonomy total equal to ElisionFailures.
func TestHookFreeAbortTaxonomyExactlyOnce(t *testing.T) {
	cases := []struct {
		name string
		// body is the failing first execution; a goroutine it starts
		// joins wg.
		body  func(l *Lock, th, w *jthread.Thread, wg *sync.WaitGroup)
		cause metrics.AbortCause
	}{
		{
			// A whole writing section runs inside the speculation.
			name:  "writer-raced",
			body:  func(l *Lock, th, w *jthread.Thread, _ *sync.WaitGroup) { l.Sync(w, func() {}) },
			cause: metrics.AbortWriterRaced,
		},
		{
			// The writer still holds the lock at validation; it releases
			// only once the reader has fallen back, after classification.
			name: "lock-bit-set",
			body: func(l *Lock, th, w *jthread.Thread, wg *sync.WaitGroup) {
				l.Lock(w)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for l.Stats().Fallbacks.Load() == 0 {
						runtime.Gosched()
					}
					l.Unlock(w)
				}()
			},
			cause: metrics.AbortLockBitSet,
		},
		{
			// A checkpoint validates the stale frame and unwinds.
			name: "async",
			body: func(l *Lock, th, w *jthread.Thread, _ *sync.WaitGroup) {
				l.Sync(w, func() {})
				th.Poke()
				th.Checkpoint()
			},
			cause: metrics.AbortAsync,
		},
	}
	for _, tc := range cases {
		for _, entry := range hookFreeEntries {
			t.Run(tc.name+"/"+entry.name, func(t *testing.T) {
				ths := newT(t, 2)
				th, w := ths[0], ths[1]
				reg := metrics.New(2)
				l := New(&Config{
					Tier1: 8, Tier2: 4, Tier3: 2,
					FLCTimeout:         200 * time.Microsecond,
					MaxElisionFailures: 1,
					Metrics:            reg,
				})
				if !l.hookFree || !l.metered {
					t.Fatal("test config must be hook-free and metered")
				}
				runs := 0
				var wg sync.WaitGroup
				entry.run(l, th, func() int {
					runs++
					if runs == 1 {
						tc.body(l, th, w, &wg)
					}
					return runs
				})
				wg.Wait()
				if runs != 2 {
					t.Fatalf("section ran %d times, want 2 (one failed attempt, one fallback)", runs)
				}
				if s := reg.CSDuration.Snapshot(); s.Count != 0 {
					t.Fatalf("the section was sampled (%d cs samples); it must take the hook-free attempt", s.Count)
				}
				assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{tc.cause: 1})
				var total uint64
				for c := metrics.AbortCause(0); c < metrics.NumAbortCauses; c++ {
					total += reg.AbortCount(c)
				}
				if f := l.Stats().ElisionFailures.Load(); total != f {
					t.Fatalf("taxonomy total %d != elision failures %d", total, f)
				}
			})
		}
	}
}
