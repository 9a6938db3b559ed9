package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jthread"
)

// The tests in this file pin the single-writer counters (bump): each
// thread counts in its own slot of its own counter pages, and every test
// ends with exact totals at quiescence, across threads, VMs and detaches.

// runOwnedLoad has every thread run reads elided sections on l, all
// concurrently, and then — once every read is done, so each one elides —
// writes writing sections, again concurrently. Then the threads detach.
func runOwnedLoad(l *Lock, ths []*jthread.Thread, reads, writes int) {
	var readsDone, wg sync.WaitGroup
	readsDone.Add(len(ths))
	for _, th := range ths {
		wg.Add(1)
		go func(th *jthread.Thread) {
			defer wg.Done()
			defer th.Detach()
			for i := 0; i < reads; i++ {
				if i%2 == 0 {
					l.ReadOnly(th, func() {})
				} else {
					ReadOnlyValue(l, th, func() int { return i })
				}
			}
			readsDone.Done()
			readsDone.Wait()
			for i := 0; i < writes; i++ {
				l.Sync(th, func() {})
			}
		}(th)
	}
	wg.Wait()
}

// checkOwnedTotals asserts the single-writer counters are exact: every
// read elided (runOwnedLoad runs no writer beside them), and every writing
// acquisition counts once, fast or — when the writers contended — slow.
func checkOwnedTotals(t *testing.T, st *Stats, reads, writes uint64) {
	t.Helper()
	snap := st.Snapshot()
	if snap["elisionSuccesses"] != reads || snap["elisionAttempts"] != reads {
		t.Fatalf("elisionSuccesses/Attempts = %d/%d, want %d (%v)",
			snap["elisionSuccesses"], snap["elisionAttempts"], reads, snap)
	}
	if got := snap["fastAcquires"] + snap["slowAcquires"]; got != writes {
		t.Fatalf("fastAcquires+slowAcquires = %d, want %d (%v)", got, writes, snap)
	}
}

// coldOwned returns what the lock's cold block holds of the single-writer
// counters: the counts no thread-owned slot took.
func coldOwned(l *Lock) uint64 {
	c := l.cold.Load()
	if c == nil {
		return 0
	}
	return c.c[cFastAcquires].Load() + c.c[cElisionSuccesses].Load()
}

// TestOwnedSlotsSnapshotWhileOwnerBumps reads Snapshot concurrently with a
// thread bumping its slots with plain stores: under -race nothing may be
// reported, every counter must be monotone across snapshots, no count may
// leave the thread's slots, and the totals must be exact at the end.
func TestOwnedSlotsSnapshotWhileOwnerBumps(t *testing.T) {
	const reads, writes = 20000, 2000
	vm := jthread.NewVM()
	l := New(nil)
	owner := vm.Attach("owner")

	stop := make(chan struct{})
	var snaps sync.WaitGroup
	for g := 0; g < 2; g++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
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
				prev = cur
			}
		}()
	}
	runOwnedLoad(l, []*jthread.Thread{owner}, reads, writes)
	close(stop)
	snaps.Wait()

	if n := coldOwned(l); n != 0 {
		t.Fatalf("%d of the owner's counts went to the cold block", n)
	}
	checkOwnedTotals(t, l.Stats(), reads, writes)
}

// TestOwnedSlotsTwoVMsShareStripe: each VM numbers its threads (and
// stripe indexes) from its own start, so threads of two VMs can share a
// stripe while counting on one lock. Serials and stripes play no part in
// where a count lands: each thread counts in its own pages, and the totals
// are exact. (The two threads have distinct ids, as threads sharing a lock
// must.)
func TestOwnedSlotsTwoVMsShareStripe(t *testing.T) {
	const reads, writes = 5000, 500
	vm2 := jthread.NewVM()
	vm2.Attach("idle-1")
	vm2.Attach("idle-2")
	a, b := jthread.NewVM().Attach("a"), vm2.Attach("b")
	if a.StripeIndex()&1 != b.StripeIndex()&1 || a.ID() == b.ID() {
		t.Fatalf("stripe indexes %d/%d, ids %d/%d: want one stripe of two, two ids",
			a.StripeIndex(), b.StripeIndex(), a.ID(), b.ID())
	}
	l := New(nil)
	l.ReadOnly(a, func() {})
	if sa, sb := a.CounterSlot(l.id.Load()), b.CounterSlot(l.id.Load()); sa == nil || sb != nil {
		t.Fatalf("after a's first count: a's slot %p, b's %p; want a's alone", sa, sb)
	}
	runOwnedLoad(l, []*jthread.Thread{a, b}, reads, writes)
	if n := coldOwned(l); n != 0 {
		t.Fatalf("%d counts went to the cold block", n)
	}
	checkOwnedTotals(t, l.Stats(), 2*reads+1, 2*writes)
}

// TestStatsExactAcrossDetach: threads count on one lock and then detach,
// one by one; Snapshot is exact before and after each detach, a thread
// attached later counts in a slot of its own, and a detached thread that
// (wrongly) keeps counting loses nothing either.
func TestStatsExactAcrossDetach(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	ths := []*jthread.Thread{vm.Attach("a"), vm.Attach("b"), vm.Attach("c")}
	var reads, writes uint64
	for i, th := range ths {
		for j := 0; j <= i; j++ {
			l.ReadOnly(th, func() {})
			reads++
		}
		l.Sync(th, func() {})
		writes++
	}
	checkOwnedTotals(t, l.Stats(), reads, writes)
	for _, th := range ths {
		th.Detach()
		checkOwnedTotals(t, l.Stats(), reads, writes)
	}
	late := vm.Attach("late")
	l.ReadOnly(late, func() {})
	l.Sync(late, func() {})
	reads, writes = reads+1, writes+1
	if s := late.CounterSlot(l.id.Load()); s == nil || s[cElisionSuccesses].Load() != 1 || s[cFastAcquires].Load() != 1 {
		t.Fatalf("a thread attached after the detaches did not count in its own slot")
	}
	checkOwnedTotals(t, l.Stats(), reads, writes)
	l.ReadOnly(ths[0], func() {})
	reads++
	if n := coldOwned(l); n != 1 {
		t.Fatalf("a detached thread's count: %d in the cold block, want 1", n)
	}
	checkOwnedTotals(t, l.Stats(), reads, writes)
}

// TestSnapshotMonotoneWhileThreadsDetach: eight threads count on one lock
// and detach as they finish, while a reader polls Snapshot; every total is
// non-decreasing (the -race target runs it) and exact at the end.
func TestSnapshotMonotoneWhileThreadsDetach(t *testing.T) {
	const threads, reads, writes = 8, 3000, 300
	vm := jthread.NewVM()
	l := New(nil)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
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
			prev = cur
		}
	}()
	ths := make([]*jthread.Thread, threads)
	for i := range ths {
		ths[i] = vm.Attach("t")
	}
	runOwnedLoad(l, ths, reads, writes)
	close(stop)
	<-done
	checkOwnedTotals(t, l.Stats(), threads*reads, threads*writes)
}

// TestExternalAddOnOwnedCounter: Counter.Add on a single-writer counter
// lands in the cold block, so it neither races with nor clobbers the
// owner's plain stores, even while the owner bumps concurrently.
func TestExternalAddOnOwnedCounter(t *testing.T) {
	const reads, writes, adds = 5000, 500, 1000
	vm := jthread.NewVM()
	l := New(nil)
	owner := vm.Attach("owner")
	l.ReadOnly(owner, func() {}) // owner takes its slot
	st := l.Stats()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			st.ElisionSuccesses.Add(1)
			st.FastAcquires.Add(2)
		}
	}()
	runOwnedLoad(l, []*jthread.Thread{owner}, reads, writes)
	wg.Wait()

	if n := coldOwned(l); n != 3*adds {
		t.Fatalf("cold block holds %d, want the %d external adds alone", n, 3*adds)
	}
	checkOwnedTotals(t, st, reads+1+adds, writes+2*adds)
}

// TestCountsLandInOwnSlots: each thread's counts land in its own slot for
// the lock's stats id, and nowhere else.
func TestCountsLandInOwnSlots(t *testing.T) {
	const threads = 4
	vm := jthread.NewVM()
	l := New(nil)
	ths := make([]*jthread.Thread, threads)
	for i := range ths {
		ths[i] = vm.Attach("t")
		for j := 0; j <= i; j++ {
			l.ReadOnly(ths[i], func() {})
		}
	}
	id := l.id.Load()
	for i, th := range ths {
		s := th.CounterSlot(id)
		if s == nil {
			t.Fatalf("thread %d has no slot for the lock", i)
		}
		if got := s[cElisionSuccesses].Load(); got != uint64(i+1) {
			t.Errorf("thread %d's slot holds %d successes, want %d", i, got, i+1)
		}
	}
	if got := l.Stats().ElisionAttempts.Load(); got != 1+2+3+4 {
		t.Fatalf("ElisionAttempts = %d, want 10", got)
	}
}

// TestStatsIDSpaceExhausted: a lock that finds the stats-id space
// exhausted counts its single-writer counters in its cold block, asks for
// an id once, and stays exact.
func TestStatsIDSpaceExhausted(t *testing.T) {
	var calls atomic.Int32
	defer func(f func() uint32) { newStatsID = f }(newStatsID)
	newStatsID = func() uint32 { calls.Add(1); return 0 }

	const reads, writes = 300, 30
	vm := jthread.NewVM()
	l := New(nil)
	runOwnedLoad(l, []*jthread.Thread{vm.Attach("a"), vm.Attach("b")}, reads, writes)
	if id := l.id.Load(); id != 0 {
		t.Fatalf("lock took stats id %d from an exhausted space", id)
	}
	if c := l.cold.Load(); c == nil || !c.noID.Load() {
		t.Fatal("exhaustion was not latched in the cold block")
	}
	if n := calls.Load(); n == 0 || n > 2 {
		t.Fatalf("the lock asked for an id %d times, want once per racing thread at most", n)
	}
	snap := l.Stats().Snapshot()
	if n, want := coldOwned(l), snap["fastAcquires"]+snap["elisionSuccesses"]; n != want {
		t.Fatalf("cold block holds %d single-writer counts, want all %d", n, want)
	}
	checkOwnedTotals(t, l.Stats(), 2*reads, 2*writes)
}

// TestCountedLocksDoNotLeak pins that a lock which counted leaves nothing
// behind when dropped: its finalizer returns its stats id, so ids are
// reused, the id high-water mark and the threads' counter pages stay
// bounded by the locks alive at once, and the live heap does not grow.
func TestCountedLocksDoNotLeak(t *testing.T) {
	const locks, rounds = 4096, 5
	th := jthread.NewVM().Attach("counter")
	defer th.Detach()
	fn := func() {}
	round := func() {
		for i := 0; i < locks; i++ {
			l := New(nil)
			l.ReadOnly(th, fn)
			l.Sync(th, fn)
		}
	}
	// settle collects the dropped locks and waits for their finalizers
	// to return every id they took.
	settle := func() {
		for i := 0; i < 100; i++ {
			runtime.GC()
			if _, free, _ := jthread.CounterFootprint(); free >= locks {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	round()
	settle()
	hw0, _, pages0 := jthread.CounterFootprint()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		round()
		settle()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	hw1, free, pages1 := jthread.CounterFootprint()
	t.Logf("high-water %d -> %d, pages %d -> %d, %d ids free", hw0, hw1, pages0, pages1, free)
	// Without recycling each round would add locks ids, and a page per 256.
	if hw1 > hw0+locks {
		t.Fatalf("id high-water mark grew %d -> %d over %d rounds of %d dropped locks", hw0, hw1, rounds, locks)
	}
	if pages1 > pages0+locks/256+1 {
		t.Fatalf("counter pages grew %d -> %d over %d rounds of %d dropped locks", pages0, pages1, rounds, locks)
	}
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (rounds * locks)
	t.Logf("live heap growth: %.1f B per dropped lock", per)
	if per >= 32 {
		t.Fatalf("live heap grew %.1f B per dropped lock, want < 32", per)
	}
}
