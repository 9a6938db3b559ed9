package monitor

import (
	"sync"
	"testing"
	"time"
)

func TestEnterExitBasic(t *testing.T) {
	m := NewLocal(1)
	m.Enter(1)
	if !m.HeldBy(1) || m.HeldBy(2) {
		t.Fatalf("ownership wrong after Enter")
	}
	if !m.Exit(1) {
		t.Fatalf("Exit did not report full release")
	}
	if m.HeldBy(1) {
		t.Fatalf("still held after Exit")
	}
}

func TestReentrancy(t *testing.T) {
	m := NewLocal(1)
	m.Enter(7)
	m.Enter(7)
	m.Enter(7)
	if m.Exit(7) {
		t.Fatalf("inner Exit reported full release")
	}
	if m.Exit(7) {
		t.Fatalf("inner Exit reported full release")
	}
	if !m.Exit(7) {
		t.Fatalf("outer Exit did not report full release")
	}
}

func TestExitByNonOwnerPanics(t *testing.T) {
	m := NewLocal(1)
	m.Enter(1)
	defer m.Exit(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("Exit by non-owner did not panic")
		}
	}()
	m.Exit(2)
}

func TestEnterBlocksUntilExit(t *testing.T) {
	m := NewLocal(1)
	m.Enter(1)
	acquired := make(chan struct{})
	go func() {
		m.Enter(2)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatalf("Enter did not block while owned")
	case <-time.After(20 * time.Millisecond):
	}
	m.Exit(1)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatalf("blocked Enter never acquired after Exit")
	}
	m.Exit(2)
}

func TestMutualExclusionStress(t *testing.T) {
	m := NewLocal(1)
	var shared, iters int
	const perThread = 2000
	var wg sync.WaitGroup
	for tid := uint64(1); tid <= 8; tid++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				m.Enter(tid)
				shared++
				iters++
				m.Exit(tid)
			}
		}(tid)
	}
	wg.Wait()
	if shared != 8*perThread || iters != 8*perThread {
		t.Fatalf("lost updates: shared=%d iters=%d want %d", shared, iters, 8*perThread)
	}
}

func TestWaitLockedTimesOut(t *testing.T) {
	m := NewLocal(1)
	m.RawLock()
	start := time.Now()
	woken := m.WaitLocked(5 * time.Millisecond)
	elapsed := time.Since(start)
	m.RawUnlock()
	if woken {
		t.Fatalf("WaitLocked reported wakeup without broadcast")
	}
	if elapsed < 4*time.Millisecond {
		t.Fatalf("WaitLocked returned too early: %v", elapsed)
	}
	if m.StatsSnapshot().Timeouts != 1 {
		t.Fatalf("timeout not counted")
	}
}

func TestBroadcastWakesAllWaiters(t *testing.T) {
	m := NewLocal(1)
	const n = 4
	var wg sync.WaitGroup
	ready := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.RawLock()
			ready <- struct{}{}
			if !m.WaitLocked(5 * time.Second) {
				t.Errorf("waiter timed out instead of being broadcast")
			}
			m.RawUnlock()
		}()
	}
	for i := 0; i < n; i++ {
		<-ready
	}
	// Ensure all are actually parked (not merely registered).
	for {
		m.RawLock()
		w := m.waiters
		m.RawUnlock()
		if w == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m.RawLock()
	m.BroadcastLocked()
	m.RawUnlock()
	wg.Wait()
}

func TestSavedCounterRoundTrip(t *testing.T) {
	m := NewLocal(1)
	m.RawLock()
	m.SavedCounter = 0xabc00
	m.RawUnlock()
	m.RawLock()
	if m.SavedCounter != 0xabc00 {
		t.Fatalf("SavedCounter lost")
	}
	m.RawUnlock()
}
