package monitor

import (
	"time"

	"repro/internal/sched"
)

// Condition-queue support: Object.wait/notify/notifyAll. As in production
// JVMs, waiting requires the fat lock — a flat lock inflates before its
// owner can wait — because the wait set lives on the monitor.

// condWaiter is one parked waiter.
type condWaiter struct {
	ch chan struct{}
}

// CondReleaseAndPark releases tid's full ownership (returning the
// recursion depth so the caller can restore it after reacquisition) and
// parks on the condition queue until notified or until timeout elapses
// (timeout <= 0 waits indefinitely). It reports whether the wakeup was a
// notification; like Java, timed-out waiters that race a notification are
// treated as notified.
//
// The caller must own the monitor and must reacquire the *lock* (not just
// the monitor) after this returns — the lock word may have deflated while
// parked.
func (m *Monitor) CondReleaseAndPark(tid uint64, timeout time.Duration) (rec uint32, notified bool) {
	m.mu.Lock()
	if m.owner != tid {
		m.mu.Unlock()
		panic("monitor: wait by non-owner")
	}
	rec = m.rec
	m.owner = 0
	m.rec = 0
	w := &condWaiter{ch: make(chan struct{})}
	m.condq = append(m.condq, w)
	sched.NotePark()
	m.BroadcastLocked() // wake entry waiters: the monitor is free
	m.mu.Unlock()

	if timeout <= 0 {
		<-w.ch
		return rec, true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		return rec, true
	case <-timer.C:
	}
	// Timed out: remove ourselves from the queue — unless a notification
	// raced in and already popped us.
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, q := range m.condq {
		if q == w {
			m.condq = append(m.condq[:i], m.condq[i+1:]...)
			sched.NoteUnpark(1)
			return rec, false
		}
	}
	return rec, true // popped by a notifier: count as notified
}

// NotifyOne wakes the longest-waiting condition waiter, if any. The caller
// must hold the lock (asserted by the lock implementations).
func (m *Monitor) NotifyOne() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.condq) == 0 {
		return
	}
	w := m.condq[0]
	m.condq = m.condq[1:]
	close(w.ch)
	sched.NoteUnpark(1)
}

// NotifyAllCond wakes every condition waiter.
func (m *Monitor) NotifyAllCond() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.condq {
		close(w.ch)
	}
	sched.NoteUnpark(len(m.condq))
	m.condq = nil
}

// CondWaiters returns the current condition-queue length.
func (m *Monitor) CondWaiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.condq)
}
