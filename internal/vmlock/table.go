package vmlock

import (
	"time"

	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/montable"
	"repro/internal/sched"
)

// Table-backed fat mode (Config.Monitors != nil): the inflated word's
// field is a montable ticket rather than a monitor.Global id. The
// protocol shape is identical to the classic paths; what changes is how
// a fat word resolves to its monitor (PinWord, with stale-ticket retry)
// and that inflation binds a shared table entry which deflation — on
// release or by the table's sweeper — returns to the free list. A stray
// FLC bit on a ticket word is normalized away in validations: the
// monitor, not the bit, is the mutual exclusion.

// heldFatTable reports whether t owns the (table-backed) fat lock whose
// observed word is v. A stale ticket means the fat episode ended; fall
// back to the flat reading of the current word.
func (l *Lock) heldFatTable(t *jthread.Thread, v uint64) bool {
	h, ok := l.cfg.Monitors.PinWord(v, t.ID())
	if !ok {
		return lockword.ConvHeldBy(l.word.Load(), t.ID())
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
	l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
		m.Enter(tid)
	})
	if l.word.Load()&^lockword.FLCBit == h.Word {
		l.st.FatEnters.Add(1)
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
		case lockword.Field(v) == 0:
			// Free (possibly with a stale FLC bit): grab it, then
			// publish the ticket word. The CAS clears FLC.
			if l.word.CompareAndSwap(v, lockword.ConvOwned(tid, 0)) {
				l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
					m.Enter(tid)
				})
				l.st.Inflations.Add(1)
				l.word.Store(h.Word)
				m.RawLock()
				m.BroadcastLocked() // other FLC waiters must re-read
				m.RawUnlock()
				h.Unpin()
				return
			}
		default:
			// Held: announce contention and park (timed — the FLC bit
			// can be clobbered by a racing fast release).
			l.word.Or(lockword.FLCBit)
			l.cfg.Sched.Park(tid, sched.PFLCPark, func() {
				m.RawLock()
				v = l.word.Load()
				if !lockword.Inflated(v) && lockword.Field(v) != 0 {
					l.flcWait(t, m)
				}
				m.RawUnlock()
			})
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
	})
	m.SetRecursionOwned(tid, uint32(lockword.ConvRec(v))+extra)
	l.st.Inflations.Add(1)
	l.word.Store(h.Word)
	m.RawLock()
	m.BroadcastLocked()
	m.RawUnlock()
	h.Unpin()
}

func (l *Lock) slowExitTable(t *jthread.Thread, v uint64) {
	tid := t.ID()
	switch {
	case lockword.Inflated(v):
		h, ok := l.cfg.Monitors.PinWord(v, tid)
		if !ok {
			// An owned monitor is never quiescent, so the owner's ticket
			// cannot have been reclaimed.
			panic("vmlock: Unlock resolved a stale ticket while owned")
		}
		m := h.Mon
		deflated := false
		var deflate func()
		if l.cfg.Deflate {
			deflate = func() {
				l.st.Deflations.Add(1)
				// Zero for conventional-layout locks; montable resets it
				// at reclaim either way.
				l.word.Store(m.SavedCounter)
				deflated = true
			}
		}
		l.cfg.Sched.Block(tid, sched.PDeflate, func() {
			m.ExitDeflating(tid, deflate)
		})
		if deflated {
			h.UnpinReclaim(tid)
		} else {
			h.Unpin()
		}
	case lockword.ConvHeldBy(v, tid) && lockword.ConvRec(v) > 0:
		sub(&l.word, lockword.ConvRecOne)
	case lockword.ConvHeldBy(v, tid):
		// FLC set: release under the bound monitor's mutex and wake the
		// parked contenders. No binding means the bit is a stray from a
		// reclaimed episode — nobody can be parked on a reclaimed
		// (pin-guarded) monitor, so a plain store suffices.
		if h, ok := l.cfg.Monitors.FindBound(&l.word, tid); ok {
			m := h.Mon
			m.RawLock()
			l.word.Store(0)
			m.BroadcastLocked()
			m.RawUnlock()
			h.UnpinReclaim(tid)
		} else {
			l.word.Store(0)
		}
	default:
		panic("vmlock: Unlock by non-owner (slow path)")
	}
}

// waitTimeoutTable is WaitTimeout for table-backed locks.
func (l *Lock) waitTimeoutTable(t *jthread.Thread, d time.Duration) bool {
	tid := t.ID()
	v := l.word.Load()
	switch {
	case lockword.ConvHeldBy(v, tid):
		l.inflateAsOwnerTable(t, v, 0)
	case lockword.Inflated(v) && l.heldFatTable(t, v):
	default:
		panic("vmlock: Wait without holding the lock (IllegalMonitorStateException)")
	}
	h, ok := l.cfg.Monitors.PinWord(l.word.Load(), tid)
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
			panic("vmlock: Wait reacquire resolved a stale ticket while owned")
		}
		h.Mon.SetRecursionOwned(tid, rec)
		h.Unpin()
		return
	}
	if rec <= lockword.ConvRecMax {
		l.word.Add(uint64(rec) * lockword.ConvRecOne)
		return
	}
	l.inflateAsOwnerTable(t, l.word.Load(), 0)
	h, ok := l.cfg.Monitors.PinWord(l.word.Load(), tid)
	if !ok {
		panic("vmlock: Wait reacquire resolved a stale ticket while owned")
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
