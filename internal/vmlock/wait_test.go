package vmlock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jthread"
)

func TestWaitNotifyRoundTrip(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	waiter := vm.Attach("waiter")
	notifier := vm.Attach("notifier")
	var parked atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Lock(waiter)
		parked.Store(true)
		if !l.WaitTimeout(waiter, 5*time.Second) {
			t.Errorf("timed out")
		}
		if !l.HeldBy(waiter) {
			t.Errorf("not reacquired")
		}
		l.Unlock(waiter)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !parked.Load() || l.HeldBy(waiter) {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	l.Lock(notifier)
	l.Notify(notifier)
	l.Unlock(notifier)
	<-done
}

func TestWaitTimeout(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	th := vm.Attach("t")
	l.Lock(th)
	if l.WaitTimeout(th, 5*time.Millisecond) {
		t.Fatalf("notified without notifier")
	}
	if !l.HeldBy(th) {
		t.Fatalf("not reacquired after timeout")
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

func TestWaitRestoresRecursion(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	th := vm.Attach("t")
	const depth = 4
	for i := 0; i < depth; i++ {
		l.Lock(th)
	}
	l.WaitTimeout(th, time.Millisecond)
	for i := 0; i < depth; i++ {
		if !l.HeldBy(th) {
			t.Fatalf("recursion lost at %d", i)
		}
		l.Unlock(th)
	}
	if l.HeldBy(th) {
		t.Fatalf("still held after unwind")
	}
}

func TestNotifyAllWithConventionalLock(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	const n = 3
	var wg sync.WaitGroup
	var woken atomic.Int32
	for i := 0; i < n; i++ {
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
			t.Fatalf("waiters never parked")
		}
		if m := boundMonitor(l); m != nil && m.CondWaiters() == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l.Lock(main)
	l.NotifyAll(main)
	l.Unlock(main)
	wg.Wait()
	if woken.Load() != n {
		t.Fatalf("woken = %d", woken.Load())
	}
}

// TestInflatedLocksDoNotLeak pins that a lock which inflated once leaves
// nothing behind when dropped: its fat monitor is rented from the shared
// monitor table and returned on the deflating release, not filed in a
// process-wide registry for the rest of the process.
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
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / locks
	t.Logf("live heap growth: %.1f B per dropped lock", per)
	if per >= 32 {
		t.Fatalf("live heap grew %.1f B per dropped lock, want < 32", per)
	}
}
