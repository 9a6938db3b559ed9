package core

import (
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/montable"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Table-backed fat mode (Config.Monitors != nil): the inflated word's
// field is a montable ticket rather than a monitor.Global id, so monitor
// state is rented from the shared table for the duration of a contended
// episode instead of accreting one allocation per lock. The SOLERO
// counter discipline is unchanged — inflation stashes SoleroNextFree of
// the displaced free word in the monitor's SavedCounter, and deflation
// (on release or by the table's sweeper) publishes it, so elided readers
// still observe a changed word. A stray FLC bit on a ticket word is
// normalized away in validations: the monitor, not the bit, is the
// mutual exclusion.

// heldFatTable reports whether t owns the (table-backed) fat lock whose
// observed word is v. A stale ticket means the fat episode ended; fall
// back to the flat reading of the current word.
func (l *Lock) heldFatTable(t *jthread.Thread, v uint64) bool {
	h, ok := l.cfg.Monitors.PinWord(v, t.ID())
	if !ok {
		return lockword.SoleroHeldBy(l.word.Load(), t.ID())
	}
	held := h.Mon.HeldBy(t.ID())
	h.Unpin()
	return held
}

// fatEnterTable resolves an observed ticket word and enters its monitor.
// False means retry from the top: the ticket was stale or the lock
// deflated before the monitor was entered.
func (l *Lock) fatEnterTable(t *jthread.Thread, v uint64) bool {
	h, ok := l.cfg.Monitors.PinWord(v, t.ID())
	if !ok {
		return false
	}
	if l.fatEnterTablePinned(t, h) {
		h.Unpin()
		return true
	}
	h.UnpinReclaim(t.ID())
	return false
}

// fatEnterTablePinned enters the pinned handle's monitor; the caller
// keeps ownership of the pin in every outcome.
func (l *Lock) fatEnterTablePinned(t *jthread.Thread, h montable.Handle) bool {
	tid := t.ID()
	m := h.Mon
	var parkStart time.Time
	if l.cfg.Metrics != nil {
		parkStart = time.Now()
	}
	l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() { m.Enter(tid) })
	if mr := l.cfg.Metrics; mr != nil {
		mr.Park.Record(t.StripeIndex(), time.Since(parkStart).Nanoseconds())
	}
	if l.word.Load()&^lockword.FLCBit == h.Word {
		l.st.incShared(cFatEnters)
		l.cfg.History.Record(history.Acquire, tid, h.Word)
		return true
	}
	m.Exit(tid)
	return false
}

// contendAndInflateTable is the table-backed END_OF_SPIN path: bind the
// entry once, keep the pin across FLC parks (the sweeper must not
// reclaim the monitor this contender is parked on), then either grab the
// freed flat lock and publish the ticket or join the inflated monitor.
func (l *Lock) contendAndInflateTable(t *jthread.Thread) {
	tid := t.ID()
	h := l.cfg.Monitors.Bind(&l.word, tid)
	m := h.Mon
	for {
		v := l.word.Load()
		switch {
		case lockword.Inflated(v):
			if v&^lockword.FLCBit == h.Word {
				if l.fatEnterTablePinned(t, h) {
					h.Unpin()
					return
				}
				continue
			}
			// A different ticket cannot be published while we hold the
			// pin; defensive retry.
			h.UnpinReclaim(tid)
			l.slowEnter(t, v)
			return
		case lockword.SoleroHeld(v):
			// Held: announce contention and park (timed — the FLC bit
			// can be clobbered by a racing fast release).
			l.word.Or(lockword.FLCBit)
			var parkStart time.Time
			if l.cfg.Metrics != nil {
				parkStart = time.Now()
			}
			l.cfg.Sched.Park(tid, sched.PFLCPark, func() {
				m.RawLock()
				if w := l.word.Load(); lockword.SoleroHeld(w) {
					l.st.incShared(cFLCWaits)
					m.WaitLocked(l.cfg.FLCTimeout)
				}
				m.RawUnlock()
			})
			if mr := l.cfg.Metrics; mr != nil {
				mr.Park.Record(t.StripeIndex(), time.Since(parkStart).Nanoseconds())
			}
		default:
			// Free, possibly with a stale FLC bit: grab the flat lock
			// (clearing FLC), then publish the ticket word.
			if l.word.CompareAndSwap(v, lockword.SoleroOwned(tid, 0)) {
				l.cfg.History.Record(history.Acquire, tid, v)
				l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
					m.Enter(tid)
					m.RawLock()
					m.SavedCounter = lockword.SoleroNextFree(v)
					m.BroadcastLocked() // other FLC waiters must re-read
					m.RawUnlock()
				})
				l.st.incShared(cInflations)
				l.cfg.Tracer.Record(trace.EvInflate, tid, v)
				l.cfg.Sched.Point(tid, sched.PInflate)
				l.cfg.History.Record(history.Inflate, tid, h.Word)
				l.word.Store(h.Word)
				h.Unpin()
				return
			}
		}
	}
}

// inflateAsOwnerTable inflates a flat lock held by t through the table,
// transferring the flat recursion depth plus extra into the monitor.
func (l *Lock) inflateAsOwnerTable(t *jthread.Thread, v uint64, extra uint32) {
	tid := t.ID()
	h := l.cfg.Monitors.Bind(&l.word, tid)
	m := h.Mon
	l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
		m.Enter(tid)
		m.SetRecursionOwned(tid, uint32(lockword.SoleroRec(v))+extra)
		m.RawLock()
		m.SavedCounter = lockword.SoleroNextFree(l.saved)
		m.BroadcastLocked()
		m.RawUnlock()
	})
	l.st.incShared(cInflations)
	l.cfg.Tracer.Record(trace.EvInflate, tid, v)
	l.cfg.Sched.Point(tid, sched.PInflate)
	l.cfg.History.Record(history.Inflate, tid, h.Word)
	l.word.Store(h.Word)
	h.Unpin()
}

// fatExitTable is the table-backed fat release (writing and read-only
// sections share it): exit the monitor, deflating to SavedCounter when
// permitted, and reclaim the entry the moment deflation empties it.
func (l *Lock) fatExitTable(t *jthread.Thread, v2 uint64) {
	tid := t.ID()
	h, ok := l.cfg.Monitors.PinWord(v2, tid)
	if !ok {
		// An owned monitor is never quiescent, so the owner's ticket
		// cannot have been reclaimed.
		panic("core: Unlock resolved a stale ticket while owned")
	}
	m := h.Mon
	deflated := false
	var deflate func()
	if l.cfg.Deflate {
		deflate = func() {
			l.st.incShared(cDeflations)
			l.cfg.Tracer.Record(trace.EvDeflate, tid, m.SavedCounter)
			l.cfg.History.Record(history.Deflate, tid, m.SavedCounter)
			l.word.Store(m.SavedCounter)
			deflated = true
		}
	}
	l.cfg.Sched.Block(tid, sched.PDeflate, func() {
		if released, _ := m.ExitDeflating(tid, deflate); released {
			l.cfg.History.Record(history.Release, tid, v2)
		}
	})
	if deflated {
		h.UnpinReclaim(tid)
	} else {
		h.Unpin()
	}
	l.cfg.Tracer.Record(trace.EvRelease, tid, v2)
}

// flcReleaseTable publishes a flat release word while the FLC bit is set:
// wake the contenders parked on the bound monitor, or store plainly when
// no binding exists (a stray bit from a reclaimed episode — nobody can be
// parked on a reclaimed, pin-guarded monitor).
func (l *Lock) flcReleaseTable(t *jthread.Thread, rel uint64) {
	tid := t.ID()
	h, ok := l.cfg.Monitors.FindBound(&l.word, tid)
	if !ok {
		l.cfg.History.Record(history.Release, tid, rel)
		l.word.Store(rel)
		return
	}
	m := h.Mon
	l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
		m.RawLock()
		l.cfg.History.Record(history.Release, tid, rel)
		l.word.Store(rel)
		m.BroadcastLocked()
		m.RawUnlock()
	})
	h.UnpinReclaim(tid)
}

// waitTimeoutTable is WaitTimeout for table-backed locks.
func (l *Lock) waitTimeoutTable(t *jthread.Thread, d time.Duration) bool {
	tid := t.ID()
	v := l.word.Load()
	switch {
	case lockword.SoleroHeldBy(v, tid):
		l.inflateAsOwnerTable(t, v, 0)
	case lockword.Inflated(v) && l.heldFatTable(t, v):
	default:
		panic("core: Wait without holding the lock (IllegalMonitorStateException)")
	}
	l.cfg.Tracer.Record(trace.EvWait, tid, l.word.Load())
	l.cfg.History.Record(history.Wait, tid, l.word.Load())
	h, ok := l.cfg.Monitors.PinWord(l.word.Load(), tid)
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
	l.cfg.Sched.Block(tid, sched.PWaitPark, func() {
		rec, notified = m.CondReleaseAndPark(tid, d)
	})
	l.cfg.Sched.Point(tid, sched.PWaitWake)
	l.Lock(t)
	if rec > 0 {
		l.restoreRecursionTable(t, rec)
	}
	return notified
}

func (l *Lock) restoreRecursionTable(t *jthread.Thread, rec uint32) {
	tid := t.ID()
	v := l.word.Load()
	if lockword.Inflated(v) {
		h, ok := l.cfg.Monitors.PinWord(v, tid)
		if !ok {
			panic("core: Wait reacquire resolved a stale ticket while owned")
		}
		h.Mon.SetRecursionOwned(tid, rec)
		h.Unpin()
		return
	}
	if rec <= lockword.SoleroRecMax {
		l.word.Add(uint64(rec) * lockword.SoleroRecOne)
		return
	}
	l.inflateAsOwnerTable(t, l.word.Load(), 0)
	h, ok := l.cfg.Monitors.PinWord(l.word.Load(), tid)
	if !ok {
		panic("core: Wait reacquire resolved a stale ticket while owned")
	}
	h.Mon.SetRecursionOwned(tid, rec)
	h.Unpin()
}

// notifyTable wakes one or all cond waiters through the table binding. An
// unbound lock has no wait set — nothing to wake.
func (l *Lock) notifyTable(t *jthread.Thread, all bool) {
	tid := t.ID()
	h, ok := l.cfg.Monitors.FindBound(&l.word, tid)
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
