package vmlock

import (
	"time"

	"repro/internal/jthread"
	"repro/internal/lockword"
)

// Object.wait/notify for the conventional lock, mirroring internal/core's
// implementation: waiting inflates a flat lock in place (the wait set
// lives on the monitor), fully releases it, parks, then reacquires and
// restores the recursion depth.

// Wait releases the lock and parks until Notify/NotifyAll, then reacquires.
// The caller must hold the lock.
func (l *Lock) Wait(t *jthread.Thread) { l.WaitTimeout(t, 0) }

// WaitTimeout is Wait with a bound (0 or negative waits indefinitely). It
// reports whether the wakeup was a notification (false: timeout).
func (l *Lock) WaitTimeout(t *jthread.Thread, d time.Duration) bool {
	tid := t.ID()
	v := l.word.Load()
	switch {
	case lockword.ConvHeldBy(v, tid):
		l.inflateAsOwner(t, v, 0)
	case lockword.Inflated(v) && l.heldFat(t, v):
	default:
		panic("vmlock: Wait without holding the lock (IllegalMonitorStateException)")
	}
	h, ok := l.table().PinWord(l.word.Load(), tid)
	if !ok {
		panic("vmlock: Wait resolved a stale ticket while owned")
	}
	m := h.Mon
	// The wait set lives on the bound entry's monitor: ownership keeps the
	// entry non-quiescent until the park takes m's mutex, and the condition
	// queue keeps it bound afterwards, so the pin can be dropped before
	// parking. The sweeper may word-deflate around a parked cond waiter
	// (EnterQuiescent permits it); reacquisition below re-inflates on
	// demand.
	h.Unpin()
	rec, notified := m.CondReleaseAndPark(tid, d)
	l.Lock(t)
	if rec > 0 {
		l.restoreRecursion(t, rec)
	}
	return notified
}

// restoreRecursion re-applies a recursion depth after a wait's
// reacquisition (which always acquires at depth zero).
func (l *Lock) restoreRecursion(t *jthread.Thread, rec uint32) {
	tid := t.ID()
	v := l.word.Load()
	if !lockword.Inflated(v) {
		if rec <= lockword.ConvRecMax {
			l.word.Add(uint64(rec) * lockword.ConvRecOne)
			return
		}
		// Depth exceeds the flat bits: inflate and set it on the monitor.
		l.inflateAsOwner(t, v, 0)
		v = l.word.Load()
	}
	h, ok := l.table().PinWord(v, tid)
	if !ok {
		panic("vmlock: Wait reacquire resolved a stale ticket while owned")
	}
	h.Mon.SetRecursionOwned(tid, rec)
	h.Unpin()
}

// Notify wakes one waiting thread. The caller must hold the lock.
func (l *Lock) Notify(t *jthread.Thread) {
	l.requireHeld(t)
	l.notify(t, false)
}

// NotifyAll wakes every waiting thread. The caller must hold the lock.
func (l *Lock) NotifyAll(t *jthread.Thread) {
	l.requireHeld(t)
	l.notify(t, true)
}

func (l *Lock) requireHeld(t *jthread.Thread) {
	if !l.HeldBy(t) {
		panic("vmlock: Notify without holding the lock (IllegalMonitorStateException)")
	}
}

// notify wakes one or all cond waiters through the table binding. An
// unbound lock has no wait set — nothing to wake.
func (l *Lock) notify(t *jthread.Thread, all bool) {
	tid := t.ID()
	h, ok := l.table().FindBound(&l.word, tid)
	if !ok {
		return
	}
	if all {
		h.Mon.NotifyAllCond()
	} else {
		h.Mon.NotifyOne()
	}
	h.UnpinReclaim(tid)
}
