package sched

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNilHooksNoOp pins the production configuration: nil hooks must be
// callable and free of side effects.
func TestNilHooksNoOp(t *testing.T) {
	var h *Hooks
	h.Point(1, PReadEnter) // must not panic
	ran := false
	h.Block(1, PWaitPark, func() { ran = true })
	if !ran {
		t.Fatal("nil Block did not run fn")
	}
}

// workers runs n workers of body under strategy and returns the scheduler.
func workers(t *testing.T, strat Strategy, n int, body func(h *Hooks, tid uint64)) *Scheduler {
	t.Helper()
	s := NewScheduler(strat, 0)
	for tid := uint64(1); tid <= uint64(n); tid++ {
		s.Register(tid)
	}
	h := s.Hooks()
	var wg sync.WaitGroup
	for tid := uint64(1); tid <= uint64(n); tid++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			s.ThreadStart(tid)
			body(h, tid)
			s.ThreadDone(tid)
		}(tid)
	}
	wg.Wait()
	return s
}

// TestSerializesThreads checks the core kernel property: between schedule
// points at most one registered thread runs. The shared counter is a plain
// int, so the race detector independently verifies the happens-before
// edges the token passing is supposed to create.
func TestSerializesThreads(t *testing.T) {
	const n, iters = 4, 200
	shared := 0
	s := workers(t, RandomWalk(42), n, func(h *Hooks, tid uint64) {
		for i := 0; i < iters; i++ {
			h.Point(tid, PBody)
			shared++
		}
	})
	if shared != n*iters {
		t.Fatalf("lost updates under the scheduler: %d != %d", shared, n*iters)
	}
	if s.Aborted() {
		t.Fatal("run aborted unexpectedly")
	}
	if got := len(s.Decisions()); got != s.Steps() {
		t.Fatalf("decisions %d != steps %d", got, s.Steps())
	}
}

// TestBlockReleasesToken checks that a thread inside a Block region stops
// holding the token: another thread must be able to run and unblock it.
// The wait is announced like the locks' waits (NotePark, and NoteUnpark by
// the waker), as Block requires of a wait on another thread.
func TestBlockReleasesToken(t *testing.T) {
	release := make(chan struct{})
	done := make(chan struct{})
	s := NewScheduler(Priorities(1, 2), 0)
	s.Register(1)
	s.Register(2)
	h := s.Hooks()
	go func() {
		s.ThreadStart(1)
		// Highest priority thread blocks on something only t2 can supply.
		h.Block(1, PWaitPark, func() {
			NotePark()
			<-release
		})
		s.ThreadDone(1)
		close(done)
	}()
	go func() {
		s.ThreadStart(2)
		h.Point(2, PBody)
		NoteUnpark(1)
		close(release)
		s.ThreadDone(2)
	}()
	<-done
}

// TestSlowStuckThreadIsWaitedFor: a thread stuck in a Block region and not
// parked — released by a wake, or caught by the watchdog in a call that
// ends on its own — rejoins before the next decision however long the host
// takes to run it, so that decision offers it. A wall-clock bound on the
// wait would make the offer depend on the stall's length.
func TestSlowStuckThreadIsWaitedFor(t *testing.T) {
	const stall = 40 * time.Millisecond // the host stall, well past the watchdog
	for _, tc := range []struct {
		name string
		// block is thread 1's Block region; wake is what thread 2 does
		// first when it runs.
		block, wake func(release chan struct{})
		// at is the decision, after thread 1's Block, that must offer
		// both threads.
		at int
	}{
		{"stalled", func(chan struct{}) { time.Sleep(stall) }, func(chan struct{}) {}, 1},
		{"released", func(release chan struct{}) {
			NotePark()
			<-release
			time.Sleep(stall)
		}, func(release chan struct{}) {
			NoteUnpark(1)
			close(release)
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &offerRecorder{Strategy: Priorities(1, 2)}
			s := NewScheduler(rec, 0)
			s.Register(1)
			s.Register(2)
			h := s.Hooks()
			release := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				s.ThreadStart(1)
				h.Block(1, PWaitPark, func() { tc.block(release) })
				h.Point(1, PRelease)
				s.ThreadDone(1)
			}()
			go func() {
				defer wg.Done()
				s.ThreadStart(2)
				tc.wake(release)
				h.Point(2, PBody)
				s.ThreadDone(2)
			}()
			wg.Wait()
			if len(rec.offers) <= tc.at || !reflect.DeepEqual(rec.offers[tc.at], []uint64{1, 2}) {
				t.Fatalf("offers %v, want decision %d to offer [1 2]: %s", rec.offers, tc.at+1, FormatTrace(s.Trace()))
			}
		})
	}
}

// TestSeededDeterminism runs the same contended scenario twice under one
// seed and requires identical decision sequences, then replays the
// recording and requires the same schedule again.
func TestSeededDeterminism(t *testing.T) {
	scenario := func(strat Strategy) []uint64 {
		s := workers(t, strat, 3, func(h *Hooks, tid uint64) {
			for i := 0; i < 50; i++ {
				h.Point(tid, PBody)
			}
		})
		return s.Decisions()
	}
	d1 := scenario(RandomWalk(7))
	d2 := scenario(RandomWalk(7))
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", d1, d2)
	}
	d3 := scenario(Replay(d1))
	if !reflect.DeepEqual(d1, d3) {
		t.Fatalf("replay diverged:\n%v\n%v", d1, d3)
	}
	if reflect.DeepEqual(d1, scenario(RandomWalk(8))) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// TestPCTDeterminism pins PCT to the same property.
func TestPCTDeterminism(t *testing.T) {
	scenario := func(strat Strategy) []uint64 {
		s := workers(t, strat, 3, func(h *Hooks, tid uint64) {
			for i := 0; i < 30; i++ {
				h.Point(tid, PBody)
			}
		})
		return s.Decisions()
	}
	if !reflect.DeepEqual(scenario(PCT(11, 3, 0)), scenario(PCT(11, 3, 0))) {
		t.Fatal("PCT not deterministic for a fixed seed")
	}
}

// TestPrioritiesOrder checks the fixed-priority strategy runs the listed
// threads strictly in order when they never block.
func TestPrioritiesOrder(t *testing.T) {
	var mu sync.Mutex
	var finished []uint64
	workers(t, Priorities(3, 1, 2), 3, func(h *Hooks, tid uint64) {
		for i := 0; i < 10; i++ {
			h.Point(tid, PBody)
		}
		mu.Lock()
		finished = append(finished, tid)
		mu.Unlock()
	})
	if !reflect.DeepEqual(finished, []uint64{3, 1, 2}) {
		t.Fatalf("completion order %v, want [3 1 2]", finished)
	}
}

// TestMaxStepsAborts checks the livelock watchdog opens the gates.
func TestMaxStepsAborts(t *testing.T) {
	s := NewScheduler(RandomWalk(1), 10)
	s.Register(1)
	done := make(chan struct{})
	go func() {
		s.ThreadStart(1)
		for i := 0; i < 1000; i++ {
			s.Hooks().Point(1, PSpin)
		}
		s.ThreadDone(1)
		close(done)
	}()
	<-done
	if !s.Aborted() {
		t.Fatal("run did not abort at maxSteps")
	}
}

// TestMinimize shrinks a synthetic failing schedule: the "bug" needs a
// single preemption to thread 2 somewhere in the first 40 decisions.
func TestMinimize(t *testing.T) {
	fails := func(dec []uint64) bool {
		for i, d := range dec {
			if i >= 40 {
				break
			}
			if d == 2 {
				return true
			}
		}
		return false
	}
	long := make([]uint64, 100)
	for i := range long {
		long[i] = 1
	}
	long[25] = 2
	long[70] = 2
	min := Minimize(long, fails, 0)
	if !fails(min) {
		t.Fatal("minimized schedule no longer fails")
	}
	if len(min) > 26 {
		t.Fatalf("minimization left %d decisions, want <= 26", len(min))
	}
}

// TestDecisionRoundTrip pins the CLI replay format.
func TestDecisionRoundTrip(t *testing.T) {
	in := []uint64{1, 1, 3, 2, 1}
	out, err := ParseDecisions(FormatDecisions(in))
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %v -> %v (%v)", in, out, err)
	}
	if _, err := ParseDecisions("1,x,3"); err == nil {
		t.Fatal("bad decision list accepted")
	}
}

// TestFormatTrace pins the compact rendering used in failure reports.
func TestFormatTrace(t *testing.T) {
	s := []Step{{1, PAcquireCAS}, {1, PRelease}, {2, PReadEnter}}
	got := FormatTrace(s)
	want := "t1:acquire-cas>release t2:read-enter"
	if got != want {
		t.Fatalf("FormatTrace = %q, want %q", got, want)
	}
}

// TestParkLetsOthersRun checks that a thread leaving a Park is not offered
// again while another thread is runnable: even a fixed priority order
// cannot starve the thread a timed spinner waits for.
func TestParkLetsOthersRun(t *testing.T) {
	s := NewScheduler(Priorities(1, 2), 0)
	s.Register(1)
	s.Register(2)
	h := s.Hooks()
	var released atomic.Bool
	spins := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.ThreadStart(1)
		for !released.Load() {
			spins++
			h.Park(1, PFLCPark, func() {})
		}
		s.ThreadDone(1)
	}()
	go func() {
		defer wg.Done()
		s.ThreadStart(2)
		released.Store(true)
		h.Point(2, PRelease)
		s.ThreadDone(2)
	}()
	wg.Wait()
	if s.Aborted() || spins != 1 {
		t.Fatalf("spinner parked %d times (aborted %v), want 1: %s", spins, s.Aborted(), FormatTrace(s.Trace()))
	}

	// Park, then Block: the thread picked after the Block did not come
	// from a Park, so its run spends the other thread's park.
	rec := &offerRecorder{Strategy: Priorities(1, 2)}
	s = NewScheduler(rec, 0)
	s.Register(1)
	s.Register(2)
	h = s.Hooks()
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.ThreadStart(1)
		h.Park(1, PFLCPark, func() {})
		h.Block(1, PMonitorEnter, func() {})
		h.Point(1, PRelease)
		s.ThreadDone(1)
	}()
	go func() {
		defer wg.Done()
		s.ThreadStart(2)
		h.Park(2, PFLCPark, func() {})
		h.Point(2, PSpin)
		s.ThreadDone(2)
	}()
	wg.Wait()
	// Decisions: 1 parks; 2 parks; 1 blocks; 1 runs from the Block to
	// PRelease; the fifth must offer both threads.
	if s.Aborted() || len(rec.offers) < 5 || !reflect.DeepEqual(rec.offers[4], []uint64{1, 2}) {
		t.Fatalf("offers %v (aborted %v), want decision 5 to offer [1 2]: %s", rec.offers, s.Aborted(), FormatTrace(s.Trace()))
	}
}

// offerRecorder records the thread ids each decision was offered.
type offerRecorder struct {
	Strategy
	offers [][]uint64
}

func (r *offerRecorder) Pick(step int, runnable []Runnable) uint64 {
	ids := make([]uint64, len(runnable))
	for i, x := range runnable {
		ids[i] = x.TID
	}
	r.offers = append(r.offers, ids)
	return r.Strategy.Pick(step, runnable)
}
