package core

import (
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/sched"
)

// Object.wait/notify support — the remaining piece of "full Java lock
// functionality" (§1). As in production JVMs, waiting requires the fat
// lock: a flat lock held by the waiter inflates in place (its wait set
// lives on the monitor). Waiting fully releases the lock (all recursion
// levels), parks on the monitor's condition queue, then reacquires the
// lock and restores the recursion depth. Wait/notify are side effects, so
// the JIT analysis never classifies a block containing them as read-only;
// calling them from inside a speculative section is a usage error (the
// thread does not hold the lock, and Wait panics exactly as the JVM throws
// IllegalMonitorStateException).

// Wait releases the lock and parks until Notify/NotifyAll, then reacquires.
// The caller must hold the lock.
func (l *Lock) Wait(t *jthread.Thread) { l.WaitTimeout(t, 0) }

// WaitTimeout is Wait with a bound (0 or negative waits indefinitely). It
// reports whether the wakeup was a notification (false: timeout).
func (l *Lock) WaitTimeout(t *jthread.Thread, d time.Duration) bool {
	tid := t.ID()
	v := l.word.Load()
	switch {
	case lockword.SoleroHeldBy(v, tid):
		// Inflate in place, preserving the recursion depth.
		l.inflateAsOwner(t, v, 0)
	case lockword.Inflated(v) && l.heldFat(t, v):
	default:
		panic("core: Wait without holding the lock (IllegalMonitorStateException)")
	}
	l.cfg.History.Record(history.Wait, tid, l.word.Load())
	h, ok := l.table().PinWord(l.word.Load(), tid)
	if !ok {
		panic("core: Wait resolved a stale ticket while owned")
	}
	m := h.Mon
	// The wait set lives on the bound entry's monitor: ownership keeps the
	// entry non-quiescent until the park takes the monitor's mutex, and
	// the condition queue keeps it bound afterwards, so the pin can be
	// dropped before parking. The sweeper may word-deflate around a parked
	// cond waiter (enter-quiescence permits it); reacquisition below
	// re-inflates on demand.
	h.Unpin()
	var rec uint32
	var notified bool
	// The park is a Block region: the token travels while this thread
	// sleeps on the condition queue, so a scheduled notifier can run.
	l.cfg.Sched.Block(tid, sched.PWaitPark, func() {
		rec, notified = m.CondReleaseAndPark(tid, d)
	})
	l.cfg.Sched.Point(tid, sched.PWaitWake)

	// Reacquire the lock — through the full protocol, because the word
	// may have deflated (and even re-inflated) while parked.
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
		if rec <= lockword.SoleroRecMax {
			l.word.Add(uint64(rec) * lockword.SoleroRecOne)
			return
		}
		// Depth exceeds the flat bits: inflate and set it on the monitor.
		l.inflateAsOwner(t, v, 0)
		v = l.word.Load()
	}
	h, ok := l.table().PinWord(v, tid)
	if !ok {
		panic("core: Wait reacquire resolved a stale ticket while owned")
	}
	h.Mon.SetRecursionOwned(tid, rec)
	h.Unpin()
}

// Notify wakes one thread waiting on the lock. The caller must hold the
// lock.
func (l *Lock) Notify(t *jthread.Thread) {
	l.requireHeld(t)
	l.cfg.Sched.Point(t.ID(), sched.PNotify)
	l.cfg.History.Record(history.Notify, t.ID(), l.word.Load())
	l.notify(t, false)
}

// NotifyAll wakes every thread waiting on the lock. The caller must hold
// the lock.
func (l *Lock) NotifyAll(t *jthread.Thread) {
	l.requireHeld(t)
	l.cfg.Sched.Point(t.ID(), sched.PNotify)
	l.cfg.History.Record(history.Notify, t.ID(), l.word.Load())
	l.notify(t, true)
}

func (l *Lock) requireHeld(t *jthread.Thread) {
	if !l.HeldBy(t) {
		panic("core: Notify without holding the lock (IllegalMonitorStateException)")
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
