// Package vmlock implements the conventional Java lock the paper uses as
// its primary baseline ("Lock"): a tasuki-style bi-modal lock with a flat
// (thin) mode, three-tier contention management, an FLC (flat-lock
// contention) bit, inflation to an OS-monitor-backed fat mode, and
// bidirectional deflation back to flat mode (§2.1, Figures 1–3).
//
// The flat word layout is lockword's conventional layout: a word of zero is
// free; a held word carries the owner thread id in bits 8..63 and a six-bit
// recursion counter in bits 2..7; bit 1 is the FLC bit and bit 0 the
// inflation bit. The fast acquire path is a single CAS of 0 → tid<<8 and the
// fast release path a plain store of 0 (Figure 2); everything else funnels
// through the slow paths.
package vmlock

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/montable"
	"repro/internal/sched"
)

// Config tunes contention management. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Tier1 is the innermost backoff spin count (wasted cycles per probe).
	Tier1 int
	// Tier2 is the number of acquisition attempts per yield round.
	Tier2 int
	// Tier3 is the number of yield rounds before the lock inflates.
	Tier3 int
	// Deflate enables reverting a fat lock to flat mode when a full
	// release finds no parked threads.
	Deflate bool
	// FLCTimeout bounds parking on the FLC bit (guards the benign race
	// between a contender's FLC store and the owner's fast release).
	FLCTimeout time.Duration
	// Sched, when set, exposes the lock's decision points and parking
	// regions to the schedule-injection kernel so the shared invariant
	// oracle can explore this baseline too. Nil is the production setting.
	Sched *sched.Hooks
	// Monitors is the compact monitor table fat mode rents from: inflation
	// binds a table entry, the inflated word carries the entry's ticket, and
	// deflation (on release or by the table's sweeper) returns the entry to
	// the free list. Nil means montable.Shared, the process-wide table.
	Monitors *montable.Table
	// Metrics, when set, times the slow path's waits through the wait
	// seam (metrics.StartWait/EndWait), as core does: each slow
	// acquisition, spin episode and tier-3 yield, and each FLC park and
	// monitor entry as a "monitor-park" wait. Hooks live only on the
	// already-slow paths; the CAS fast path stays untouched. Nil costs one
	// branch per wait.
	Metrics *metrics.Registry
}

// DefaultConfig mirrors a production three-tier setup scaled for tests.
var DefaultConfig = &Config{
	Tier1:      32,
	Tier2:      16,
	Tier3:      4,
	Deflate:    true,
	FLCTimeout: monitor.DefaultWaitTimeout,
}

// Stats counts protocol events; all fields are maintained atomically.
// FastAcquires is counted only on a lock whose Config.Metrics is set: an
// unmetered lock's uncontended acquire is the tasuki fast path, one CAS and
// no other atomic, and its FastAcquires stays 0.
type Stats struct {
	FastAcquires atomic.Uint64 // uncontended CAS acquisitions (metered locks only)
	SlowAcquires atomic.Uint64 // acquisitions through the slow path
	Recursions   atomic.Uint64 // reentrant acquisitions
	SpinAcquires atomic.Uint64 // acquisitions won inside the spin tiers
	FLCWaits     atomic.Uint64 // parks on the FLC bit
	Inflations   atomic.Uint64
	Deflations   atomic.Uint64
	FatEnters    atomic.Uint64 // acquisitions taken in fat mode
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"fastAcquires": s.FastAcquires.Load(),
		"slowAcquires": s.SlowAcquires.Load(),
		"recursions":   s.Recursions.Load(),
		"spinAcquires": s.SpinAcquires.Load(),
		"flcWaits":     s.FLCWaits.Load(),
		"inflations":   s.Inflations.Load(),
		"deflations":   s.Deflations.Load(),
		"fatEnters":    s.FatEnters.Load(),
	}
}

// Lock is a conventional tasuki lock. The zero value is NOT ready; use New.
type Lock struct {
	word atomic.Uint64
	cfg  *Config
	st   Stats
}

// New creates a free lock with the given configuration (nil means
// DefaultConfig).
func New(cfg *Config) *Lock {
	if cfg == nil {
		cfg = DefaultConfig
	}
	return &Lock{cfg: cfg}
}

// table returns the monitor table fat mode rents from (see Config.Monitors).
func (l *Lock) table() *montable.Table {
	if mt := l.cfg.Monitors; mt != nil {
		return mt
	}
	return montable.Shared
}

// Word returns the raw lock word (diagnostics and tests).
func (l *Lock) Word() uint64 { return l.word.Load() }

// Stats exposes the lock's event counters.
func (l *Lock) Stats() *Stats { return &l.st }

// Inflated reports whether the lock is currently in fat mode.
func (l *Lock) Inflated() bool { return lockword.Inflated(l.word.Load()) }

// HeldBy reports whether t currently owns the lock (flat or fat).
func (l *Lock) HeldBy(t *jthread.Thread) bool {
	v := l.word.Load()
	if lockword.Inflated(v) {
		return l.heldFat(t, v)
	}
	return lockword.ConvHeldBy(v, t.ID())
}

// heldFat reports whether t owns the fat lock whose observed word is v. A
// stale ticket means the fat episode ended; fall back to the flat reading
// of the current word.
func (l *Lock) heldFat(t *jthread.Thread, v uint64) bool {
	if held, ok := l.table().HeldBy(v, t.ID()); ok {
		return held
	}
	return lockword.ConvHeldBy(l.word.Load(), t.ID())
}

// Lock acquires the lock for t, following Figure 2: a CAS fast path when
// the word is zero, otherwise the slow path.
func (l *Lock) Lock(t *jthread.Thread) {
	tid := t.ID()
	for {
		l.cfg.Sched.Point(tid, sched.PAcquireCAS)
		v := l.word.Load()
		if v == 0 {
			if l.word.CompareAndSwap(0, lockword.ConvOwned(tid, 0)) {
				if l.cfg.Metrics != nil {
					l.st.FastAcquires.Add(1)
				}
				return
			}
			continue
		}
		l.slowEnter(t, v)
		return
	}
}

// Unlock releases one level of ownership, following Figure 2: a plain store
// of zero when the low byte is clean, otherwise the slow path.
func (l *Lock) Unlock(t *jthread.Thread) {
	l.cfg.Sched.Point(t.ID(), sched.PRelease)
	v := l.word.Load()
	if lockword.ConvFastReleasable(v) {
		if !lockword.ConvHeldBy(v, t.ID()) {
			panic("vmlock: Unlock by non-owner")
		}
		l.word.Store(0)
		return
	}
	l.slowExit(t, v)
}

// Sync runs fn while holding the lock.
func (l *Lock) Sync(t *jthread.Thread, fn func()) {
	l.Lock(t)
	defer l.Unlock(t)
	fn()
}

func (l *Lock) slowEnter(t *jthread.Thread, v uint64) {
	l.st.SlowAcquires.Add(1)
	start := l.cfg.Metrics.StartWait()
	defer l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitAcquire, start)
	tid := t.ID()
	for {
		switch {
		case lockword.Inflated(v):
			if l.fatEnter(t, v) {
				return
			}
		case lockword.ConvHeldBy(v, tid):
			// Reentrant acquisition: bump the recursion bits, or
			// inflate when they saturate.
			l.st.Recursions.Add(1)
			if lockword.ConvRec(v) >= lockword.ConvRecMax {
				l.inflateAsOwner(t, v, 1)
				return
			}
			l.word.Add(lockword.ConvRecOne)
			return
		default:
			// Held by another thread (or a stray FLC bit on a free
			// word): three-tier spinning, then FLC parking and
			// inflation.
			if l.spinAcquire(t) {
				return
			}
			l.contendAndInflate(t)
			return
		}
		v = l.word.Load()
	}
}

// spinAcquire runs the three-tier loop of Figure 3. It returns true if it
// acquired the flat lock. It bails out early (to inflation) when it
// observes recursion, FLC, or inflation bits, exactly as the paper's
// "(v & 0xff) != 0" test does.
func (l *Lock) spinAcquire(t *jthread.Thread) bool {
	tid := t.ID()
	start := l.cfg.Metrics.StartWait()
	defer l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitSpin, start)
	for i := 0; i < l.cfg.Tier3; i++ {
		for j := 0; j < l.cfg.Tier2; j++ {
			l.cfg.Sched.Point(tid, sched.PSpin)
			v := l.word.Load()
			if v == 0 {
				if l.word.CompareAndSwap(0, lockword.ConvOwned(tid, 0)) {
					l.st.SpinAcquires.Add(1)
					return true
				}
			} else if v&lockword.LowByte != 0 {
				return false
			}
			spinBackoff(l.cfg.Tier1)
		}
		l.yield(t) // the paper's tier-3 yield()
	}
	return false
}

// contendAndInflate is the paper's END_OF_SPIN path: bind the lock's
// table entry once, keep the pin across FLC parks (the sweeper must not
// reclaim the monitor this contender is parked on), then either grab the
// freed flat lock and publish the ticket or join the inflated monitor. The
// caller ends up owning the fat lock.
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
			// can be clobbered by a racing fast release). The timeout
			// ends the park, so under schedule injection it is a Park:
			// the token stays with this thread.
			l.word.Or(lockword.FLCBit)
			start, parked := l.cfg.Metrics.StartWait(), false
			l.cfg.Sched.Park(tid, sched.PFLCPark, func() {
				m.RawLock()
				v = l.word.Load()
				if !lockword.Inflated(v) && lockword.Field(v) != 0 {
					l.st.FLCWaits.Add(1)
					parked = true
					m.WaitLocked(l.cfg.FLCTimeout)
				}
				m.RawUnlock()
			})
			if parked {
				l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitMonitorPark, start)
			}
		}
	}
}

// yield is the tier-3 yield, timed through the wait seam.
func (l *Lock) yield(t *jthread.Thread) {
	start := l.cfg.Metrics.StartWait()
	runtime.Gosched()
	l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitYield, start)
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
// ownership of the pin in every outcome. The word is re-checked after
// entry, masking FLC: a contender's Or can land on a word inflated after
// its load, and the stray bit must not lock everyone out of the monitor.
func (l *Lock) fatEnterPinned(t *jthread.Thread, h montable.Handle) bool {
	tid := t.ID()
	m := h.Mon
	start := l.cfg.Metrics.StartWait()
	l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
		m.Enter(tid)
	})
	l.cfg.Metrics.EndWait(t.StripeIndex(), metrics.WaitMonitorPark, start)
	if l.word.Load()&^lockword.FLCBit == h.Word {
		l.st.FatEnters.Add(1)
		return true
	}
	m.Exit(tid)
	return false
}

// inflateAsOwner inflates a flat lock held by t, transferring the
// recursion depth plus extra into the monitor (extra is 1 when called
// mid-acquisition at recursion saturation, 0 when inflating in place).
func (l *Lock) inflateAsOwner(t *jthread.Thread, v uint64, extra uint32) {
	tid := t.ID()
	h := l.table().Bind(&l.word, tid)
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

func (l *Lock) slowExit(t *jthread.Thread, v uint64) {
	tid := t.ID()
	switch {
	case lockword.Inflated(v):
		h, ok := l.table().PinWord(v, tid)
		if !ok {
			// An owned monitor is never quiescent, so the owner's ticket
			// cannot have been reclaimed.
			panic("vmlock: Unlock resolved a stale ticket while owned")
		}
		m := h.Mon
		var deflate func()
		if l.cfg.Deflate {
			deflate = func() {
				l.st.Deflations.Add(1)
				l.word.Store(0)
			}
		}
		l.cfg.Sched.Block(tid, sched.PDeflate, func() {
			m.ExitDeflating(tid, deflate)
		})
		// Reclaim-checked even without deflating: the successor this
		// exit handed the monitor to may deflate before this pin drops,
		// and then this is the last pin out.
		h.UnpinReclaim(tid)
	case lockword.ConvHeldBy(v, tid) && lockword.ConvRec(v) > 0:
		sub(&l.word, lockword.ConvRecOne)
	case lockword.ConvHeldBy(v, tid):
		// FLC set: release under the bound monitor's mutex and wake the
		// parked contenders. No binding means the bit is a stray from a
		// reclaimed episode — nobody can be parked on a reclaimed
		// (pin-guarded) monitor, so a plain store suffices.
		if h, ok := l.table().FindBound(&l.word, tid); ok {
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

// sub atomically subtracts delta from w.
func sub(w *atomic.Uint64, delta uint64) { w.Add(^delta + 1) }

// spinBackoff wastes roughly n loop iterations (the paper's tier-1 loop).
//
//go:noinline
func spinBackoff(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += i
	}
	return x
}
