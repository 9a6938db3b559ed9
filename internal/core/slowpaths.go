package core

import (
	"sync/atomic"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/metrics"
	"repro/internal/montable"
	"repro/internal/sched"
)

// sub atomically subtracts delta from w (recursion-depth unwinds below).
func sub(w *atomic.Uint64, delta uint64) { w.Add(^delta + 1) }

// slowEnter is solero_slow_enter: reentrant acquisition, contention
// management, and fat-mode entry for writing critical sections.
func (l *Lock) slowEnter(t *jthread.Thread, v uint64) {
	l.inc(cSlowAcquires)
	start := l.cfg.Metrics.StartWait()
	defer l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitAcquire, start)
	tid := t.ID()
	for {
		switch {
		case lockword.Inflated(v):
			if l.fatEnter(t, v) {
				return
			}
		case lockword.SoleroHeldBy(v, tid):
			l.inc(cRecursions)
			if lockword.SoleroRec(v) >= lockword.SoleroRecMax {
				l.inflateAsOwner(t, v, 1)
				return
			}
			l.word.Add(lockword.SoleroRecOne)
			return
		default:
			// Held by another thread, or a stray FLC bit on a free
			// word: spin, then park-and-inflate.
			if l.spinAcquire(t) {
				return
			}
			l.contendAndInflate(t)
			return
		}
		v = l.word.Load()
	}
}

// spinAcquire runs the three-tier loop. It bails out to inflation as soon
// as it observes the inflation or FLC bit (the paper's "(v & 0x3) != 0"
// test in Figure 8); plain held words are spun on. On success the
// pre-acquire word is stored as the local lock variable.
func (l *Lock) spinAcquire(t *jthread.Thread) bool {
	tid := t.ID()
	start := l.cfg.Metrics.StartWait()
	defer l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitSpin, start)
	for i := 0; i < l.cfg.Tier3; i++ {
		for j := 0; j < l.cfg.Tier2; j++ {
			l.cfg.Sched.Point(tid, sched.PSpin)
			v := l.word.Load()
			if lockword.SoleroFree(v) {
				if l.word.CompareAndSwap(v, lockword.SoleroOwned(tid, 0)) {
					t.PushOwner(&l.word, v)
					l.inc(cSpinAcquires)
					l.cfg.History.Record(history.Acquire, tid, v)
					return true
				}
			} else if v&(lockword.InflationBit|lockword.FLCBit) != 0 {
				return false
			}
			spinBackoff(l.cfg.Tier1)
		}
		l.yield(t)
	}
	return false
}

// contendAndInflate is the END_OF_SPIN path: bind the lock's table entry
// once, keep the pin across FLC parks (the sweeper must not reclaim the
// monitor this contender is parked on), then either grab the freed flat
// lock and publish the ticket — stashing the incremented counter in the
// monitor so deflation publishes a changed word — or join the inflated
// monitor. The caller ends up owning the fat lock.
func (l *Lock) contendAndInflate(t *jthread.Thread) {
	tid := t.ID()
	h := l.table().Bind(&l.word, tid)
	m := h.Mon
	for {
		v := l.word.Load()
		switch {
		case lockword.Inflated(v):
			if v&^lockword.FLCBit == h.Word {
				if l.fatEnterPinned(t, h) {
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
			// can be clobbered by a racing fast release). The timeout
			// ends the park, so under schedule injection it is a Park:
			// the token stays with this thread.
			l.word.Or(lockword.FLCBit)
			start, parked := l.cfg.Metrics.StartWait(), false
			l.cfg.Sched.Park(tid, sched.PFLCPark, func() {
				m.RawLock()
				if w := l.word.Load(); lockword.SoleroHeld(w) {
					l.inc(cFLCWaits)
					parked = true
					m.WaitLocked(l.cfg.FLCTimeout)
				}
				m.RawUnlock()
			})
			if parked {
				l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitMonitorPark, start)
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
				l.inc(cInflations)
				l.cfg.Sched.Point(tid, sched.PInflate)
				l.cfg.History.Record(history.Inflate, tid, h.Word)
				l.word.Store(h.Word)
				h.Unpin()
				return
			}
		}
	}
}

// fatEnter resolves an observed ticket word and enters its monitor. False
// means retry from the top: the ticket was stale or the lock deflated
// before the monitor was entered.
func (l *Lock) fatEnter(t *jthread.Thread, v uint64) bool {
	h, ok := l.table().PinWord(v, t.ID())
	if !ok {
		return false
	}
	if l.fatEnterPinned(t, h) {
		h.Unpin()
		return true
	}
	h.UnpinReclaim(t.ID())
	return false
}

// fatEnterPinned enters the pinned handle's monitor; the caller keeps
// ownership of the pin in every outcome. Entering is not owning: a release
// may have deflated the word while this thread queued (read exits deflate
// even with enterers queued), and a third thread may already hold it flat,
// so the word is re-checked after entry. The check masks FLC: a
// contender's Or can land on a word inflated after its load, and the stray
// bit must not lock everyone out of the monitor.
func (l *Lock) fatEnterPinned(t *jthread.Thread, h montable.Handle) bool {
	tid := t.ID()
	m := h.Mon
	start := l.cfg.Metrics.StartWait()
	l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() { m.Enter(tid) })
	l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitMonitorPark, start)
	if l.word.Load()&^lockword.FLCBit == h.Word {
		l.inc(cFatEnters)
		l.cfg.History.Record(history.Acquire, tid, h.Word)
		return true
	}
	m.Exit(tid)
	return false
}

// inflateAsOwner inflates a flat lock held by t, transferring the
// recursion depth plus extra into the monitor (extra is 1 when the caller
// is in the middle of acquiring one more level — recursion saturation —
// and 0 when the lock is inflated in place, e.g. before waiting).
func (l *Lock) inflateAsOwner(t *jthread.Thread, v uint64, extra uint32) {
	tid := t.ID()
	h := l.table().Bind(&l.word, tid)
	m := h.Mon
	l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
		m.Enter(tid)
		m.SetRecursionOwned(tid, uint32(lockword.SoleroRec(v))+extra)
		m.RawLock()
		m.SavedCounter = lockword.SoleroNextFree(t.TakeOwner(&l.word))
		m.BroadcastLocked()
		m.RawUnlock()
	})
	l.inc(cInflations)
	l.cfg.Sched.Point(tid, sched.PInflate)
	l.cfg.History.Record(history.Inflate, tid, h.Word)
	l.word.Store(h.Word)
	h.Unpin()
}

// slowExit is solero_slow_exit: recursion unwind, contended flat release,
// and fat release with optional deflation.
func (l *Lock) slowExit(t *jthread.Thread, v2 uint64) {
	tid := t.ID()
	switch {
	case lockword.Inflated(v2):
		l.fatExit(t, v2, false)
	case lockword.SoleroHeldBy(v2, tid) && lockword.SoleroRec(v2) > 0:
		sub(&l.word, lockword.SoleroRecOne)
	case lockword.SoleroHeldBy(v2, tid):
		// FLC is set: release under the monitor mutex and wake parked
		// contenders. The release word clears the FLC bit (its low
		// byte is zero), so waiters re-examine the lock.
		w := l.releaseWord(t.TakeOwner(&l.word))
		l.cfg.Sched.Point(tid, sched.PRelease)
		l.flcRelease(t, w)
	default:
		panic("core: Unlock by non-owner (slow path)")
	}
}

// slowReadEnter is solero_slow_read_enter (Figure 8). It returns the word
// to validate against for a speculative execution, or holding == true when
// the thread now *holds* the lock (reentrant entry or fat-mode entry) and
// the section must run non-speculatively, to be released by slowReadExit.
// (The paper signals the holding case by returning 0, which can never match
// a held or inflated word at validation; Go lets us make the flag explicit
// instead of overloading the counter-0 free word.)
func (l *Lock) slowReadEnter(t *jthread.Thread) (v uint64, holding bool) {
	tid := t.ID()
	v = l.word.Load()
	// test_recursion: the thread already holds the flat lock.
	if lockword.SoleroHeldBy(v, tid) {
		l.inc(cReadRecursions)
		if lockword.SoleroRec(v) >= lockword.SoleroRecMax {
			if m := l.cfg.Metrics; m != nil {
				m.RecordAbort(t.StripeIndex(), metrics.AbortRecursionOverflow)
			}
			l.inflateAsOwner(t, v, 1)
			return 0, true
		}
		l.word.Add(lockword.SoleroRecOne)
		return 0, true
	}
	// Three-tier wait for the word to become elidable.
	start := l.cfg.Metrics.StartWait()
	for i := 0; i < l.cfg.Tier3; i++ {
		for j := 0; j < l.cfg.Tier2; j++ {
			l.cfg.Sched.Point(tid, sched.PSpin)
			v = l.word.Load()
			if lockword.SoleroFree(v) {
				l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitSpin, start)
				return v, false
			}
			if v&(lockword.InflationBit|lockword.FLCBit) != 0 {
				goto inflation
			}
			spinBackoff(l.cfg.Tier1)
		}
		l.yield(t)
	}
inflation:
	// The lock stayed busy (or is already fat): the elision is preempted —
	// record why (a fat word vs. a writer holding on) — and acquire for real.
	l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitSpin, start)
	if m := l.cfg.Metrics; m != nil {
		m.RecordAbort(t.StripeIndex(), abortCauseFor(v))
	}
	if v, holding = l.contendForRead(t); holding {
		l.inc(cReadFatEnters)
	}
	return v, holding
}

// contendForRead acquires the lock non-speculatively for a read-only
// section that lost the spin (inflating it, per the paper), leaving the
// calling thread the owner. If the fat lock deflates while the thread waits
// to enter it and the word is free, it returns that word instead (holding
// false), and the section speculates on it.
func (l *Lock) contendForRead(t *jthread.Thread) (v uint64, holding bool) {
	for {
		v = l.word.Load()
		if lockword.Inflated(v) {
			if l.fatEnter(t, v) {
				return 0, true
			}
			if v = l.word.Load(); lockword.SoleroFree(v) {
				return v, false
			}
			continue
		}
		l.contendAndInflate(t)
		return 0, true
	}
}

// slowReadExit is solero_slow_read_exit (Figure 9). It returns true when
// the section completed while *holding* the lock (recursion, flat
// ownership, or fat ownership) and the hold has been released; false means
// the speculation failed and the section must be re-executed.
func (l *Lock) slowReadExit(t *jthread.Thread, v uint64) bool {
	tid := t.ID()
	w := l.word.Load()
	switch {
	case lockword.SoleroHeldBy(w, tid) && lockword.SoleroRec(w) > 0:
		sub(&l.word, lockword.SoleroRecOne)
		return true
	case lockword.SoleroHeldBy(w, tid):
		// Flat ownership at depth zero: release, publishing a new
		// counter derived from the local lock variable, then handle
		// any contention flagged meanwhile (the paper's check_flc).
		rel := l.releaseWord(t.TakeOwner(&l.word))
		l.cfg.Sched.Point(tid, sched.PRelease)
		if lockword.FLC(w) {
			l.flcRelease(t, rel)
		} else {
			l.cfg.History.Record(history.Release, tid, rel)
			l.word.Store(rel)
		}
		return true
	case lockword.Inflated(w) && l.heldFat(t, w):
		// A read section deflates even with enterers queued: otherwise a
		// steady stream of contenders keeps the lock fat and every later
		// read holds the monitor instead of eliding. Queued enterers find
		// the word flat after entering and retry.
		l.fatExit(t, w, true)
		return true
	case w == v:
		// Late success: a changed word changing *back* is impossible
		// (counters only advance), so this is the plain "unchanged"
		// case re-checked under the slow path.
		return true
	default:
		return false
	}
}

// heldFat reports whether t owns the fat lock whose observed word is v. A
// stale ticket means the fat episode ended; fall back to the flat reading
// of the current word.
func (l *Lock) heldFat(t *jthread.Thread, v uint64) bool {
	if held, ok := l.table().HeldBy(v, t.ID()); ok {
		return held
	}
	return lockword.SoleroHeldBy(l.word.Load(), t.ID())
}

// fatExit is the fat release (writing and read-only sections share it):
// exit the monitor, deflating to SavedCounter when permitted, and reclaim
// the entry the moment deflation empties it. eager deflates even with
// enterers queued (Monitor.ExitDeflatingEager); they re-check the word
// after entering and retry flat.
func (l *Lock) fatExit(t *jthread.Thread, v2 uint64, eager bool) {
	tid := t.ID()
	h, ok := l.table().PinWord(v2, tid)
	if !ok {
		// An owned monitor is never quiescent, so the owner's ticket
		// cannot have been reclaimed.
		panic("core: Unlock resolved a stale ticket while owned")
	}
	m := h.Mon
	var deflate func()
	if l.cfg.Deflate {
		deflate = func() {
			l.inc(cDeflations)
			// Runs under the monitor mutex, so no schedule point here;
			// the Block around the exit covers it.
			l.cfg.History.Record(history.Deflate, tid, m.SavedCounter)
			l.word.Store(m.SavedCounter)
		}
	}
	exit := m.ExitDeflating
	if eager {
		exit = m.ExitDeflatingEager
	}
	l.cfg.Sched.Block(tid, sched.PDeflate, func() {
		if released, _ := exit(tid, deflate); released {
			l.cfg.History.Record(history.Release, tid, v2)
		}
	})
	// Reclaim-checked even without deflating: the successor this exit
	// handed the monitor to may deflate before this pin drops, and then
	// this is the last pin out.
	h.UnpinReclaim(tid)
}

// flcRelease publishes a flat release word while the FLC bit is set: wake
// the contenders parked on the bound monitor, or store plainly when no
// binding exists (a stray bit from a reclaimed episode — nobody can be
// parked on a reclaimed, pin-guarded monitor).
func (l *Lock) flcRelease(t *jthread.Thread, rel uint64) {
	tid := t.ID()
	h, ok := l.table().FindBound(&l.word, tid)
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

// spinBackoff wastes roughly n loop iterations (the tier-1 backoff).
//
//go:noinline
func spinBackoff(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += i
	}
	return x
}
