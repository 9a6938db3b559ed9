package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jthread"
	"repro/internal/lockword"
)

func TestWaitNotifyBasic(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	waiter := vm.Attach("waiter")
	notifier := vm.Attach("notifier")

	var phase atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Lock(waiter)
		phase.Store(1)
		if !l.WaitTimeout(waiter, 5*time.Second) {
			t.Errorf("wait timed out instead of being notified")
		}
		if !l.HeldBy(waiter) {
			t.Errorf("lock not reacquired after wait")
		}
		phase.Store(2)
		l.Unlock(waiter)
	}()

	// Wait for the waiter to park (it releases the lock when it does).
	deadline := time.Now().Add(5 * time.Second)
	for phase.Load() != 1 || l.HeldBy(waiter) {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}

	l.Lock(notifier)
	if phase.Load() != 1 {
		t.Fatalf("acquired lock while waiter still owns it")
	}
	l.Notify(notifier)
	l.Unlock(notifier)
	<-done
	if phase.Load() != 2 {
		t.Fatalf("waiter did not complete")
	}
}

func TestWaitTimesOut(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	th := vm.Attach("t")
	l.Lock(th)
	start := time.Now()
	if l.WaitTimeout(th, 10*time.Millisecond) {
		t.Fatalf("wait reported notification without a notifier")
	}
	if time.Since(start) < 9*time.Millisecond {
		t.Fatalf("wait returned too early")
	}
	if !l.HeldBy(th) {
		t.Fatalf("lock not reacquired after timed-out wait")
	}
	l.Unlock(th)
}

func TestWaitWithoutLockPanics(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	th := vm.Attach("t")
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	l.Wait(th)
}

func TestNotifyWithoutLockPanics(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	th := vm.Attach("t")
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	l.Notify(th)
}

func TestWaitRestoresRecursionDepth(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	waiter := vm.Attach("waiter")
	notifier := vm.Attach("notifier")

	const depth = 3
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < depth; i++ {
			l.Lock(waiter)
		}
		l.WaitTimeout(waiter, 5*time.Second)
		// All recursion levels must still be held.
		for i := 0; i < depth; i++ {
			if !l.HeldBy(waiter) {
				t.Errorf("recursion lost at unwind %d", i)
			}
			l.Unlock(waiter)
		}
	}()
	// Notify once the waiter has parked (lock released).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked")
		}
		if !l.HeldBy(waiter) && l.Inflated() {
			// Parked (wait inflates and fully releases).
			if m := boundMonitor(l); m != nil && m.CondWaiters() == 1 {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	l.Lock(notifier)
	l.Notify(notifier)
	l.Unlock(notifier)
	<-done
	if l.HeldBy(waiter) {
		t.Fatalf("lock leaked after full unwind")
	}
}

func TestNotifyAllWakesEveryWaiter(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	const waiters = 4
	var wg sync.WaitGroup
	var woken atomic.Int32
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := vm.Attach("w")
			defer th.Detach()
			l.Lock(th)
			if l.WaitTimeout(th, 10*time.Second) {
				woken.Add(1)
			}
			l.Unlock(th)
		}()
	}
	main := vm.Attach("main")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never all parked")
		}
		if m := boundMonitor(l); m != nil && m.CondWaiters() == waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l.Lock(main)
	l.NotifyAll(main)
	l.Unlock(main)
	wg.Wait()
	if woken.Load() != waiters {
		t.Fatalf("woken = %d, want %d", woken.Load(), waiters)
	}
}

func TestNotifyWakesExactlyOne(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	const waiters = 3
	var wg sync.WaitGroup
	var notifiedCount atomic.Int32
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := vm.Attach("w")
			defer th.Detach()
			l.Lock(th)
			if l.WaitTimeout(th, 300*time.Millisecond) {
				notifiedCount.Add(1)
			}
			l.Unlock(th)
		}()
	}
	main := vm.Attach("main")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never parked")
		}
		if m := boundMonitor(l); m != nil && m.CondWaiters() == waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l.Lock(main)
	l.Notify(main)
	l.Unlock(main)
	wg.Wait()
	if got := notifiedCount.Load(); got != 1 {
		t.Fatalf("notified = %d, want exactly 1 (others must time out)", got)
	}
}

// TestWaitNotifyProducerConsumer is the classic condition-variable usage:
// a bounded handoff implemented only with the SOLERO lock's wait/notify.
func TestWaitNotifyProducerConsumer(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	var queue []int
	const items = 200

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		th := vm.Attach("producer")
		defer th.Detach()
		for i := 0; i < items; i++ {
			l.Lock(th)
			queue = append(queue, i)
			l.Notify(th)
			l.Unlock(th)
		}
	}()
	var got []int
	go func() {
		defer wg.Done()
		th := vm.Attach("consumer")
		defer th.Detach()
		for len(got) < items {
			l.Lock(th)
			for len(queue) == 0 {
				l.WaitTimeout(th, 50*time.Millisecond)
			}
			got = append(got, queue[0])
			queue = queue[1:]
			l.Unlock(th)
		}
	}()
	wg.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery: got[%d] = %d", i, v)
		}
	}
}

func TestElisionStillWorksAfterWaitEpisode(t *testing.T) {
	// Wait inflates; after deflation the lock must elide again, and a
	// reader spanning the wait episode must observe a changed word.
	vm := jthread.NewVM()
	l := newCounted()
	th := vm.Attach("t")
	l.Lock(th)
	l.WaitTimeout(th, time.Millisecond)
	l.Unlock(th)
	if l.Inflated() {
		t.Fatalf("lock did not deflate after wait episode")
	}
	l.ReadOnly(th, func() {})
	if l.Stats().ElisionSuccesses.Load() != 1 {
		t.Fatalf("elision broken after wait episode")
	}
	if lockword.SoleroCounter(l.Word()) == 0 {
		t.Fatalf("counter did not advance across the wait episode")
	}
}

// TestInflatedLocksDoNotLeak pins that a lock which inflated once leaves
// nothing behind when dropped: its fat monitor is rented from the shared
// monitor table and returned on the deflating release, not filed in a
// process-wide registry for the rest of the process.
//
// The heap is measured over three rounds and the least growth is judged:
// a real leak grows in every round, while one round's noise (the race
// detector's shadow bookkeeping, a background allocation landing between
// the two reads) does not repeat in all three.
func TestInflatedLocksDoNotLeak(t *testing.T) {
	const locks = 20000
	th := jthread.NewVM().Attach("inflater")
	cycle := func() {
		l := New(nil)
		l.Lock(th)
		l.WaitTimeout(th, 1) // inflates in place, then times out
		l.Unlock(th)
	}
	cycle() // let the shared table grow its first entry
	var rounds [3]float64
	for r := range rounds {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < locks; i++ {
			cycle()
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		rounds[r] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / locks
	}
	per := min(rounds[0], rounds[1], rounds[2])
	t.Logf("live heap growth per dropped lock: rounds %.1f / %.1f / %.1f B, least %.1f B",
		rounds[0], rounds[1], rounds[2], per)
	if per >= 32 {
		t.Fatalf("live heap grew %.1f B per dropped lock in every round (least of %.1f / %.1f / %.1f), want < 32",
			per, rounds[0], rounds[1], rounds[2])
	}
}
