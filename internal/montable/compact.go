package montable

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/lockword"
	"repro/internal/monitor"
	"repro/internal/sched"
)

// Compact is the table-backed flyweight lock: ONE word. All monitor state,
// configuration, and statistics live in the shared Space, so a session
// object embedding a Compact pays 8 bytes for its lock — the footprint the
// compact-monitors design exists to reach. The word uses lockword's
// conventional layout; when inflated, its field is a table ticket.
//
// The zero value is a free lock.
type Compact struct {
	word atomic.Uint64
}

// Word returns the raw lock word (diagnostics and tests).
func (c *Compact) Word() uint64 { return c.word.Load() }

// Inflated reports whether the lock is currently in fat mode.
func (c *Compact) Inflated() bool { return lockword.Inflated(c.word.Load()) }

// SpaceConfig tunes a Space. The zero value is usable.
type SpaceConfig struct {
	// Tier1/Tier2/Tier3 are the three-tier contention knobs (spin count,
	// attempts per yield round, yield rounds). Defaults 32/16/4.
	Tier1, Tier2, Tier3 int
	// FLCTimeout bounds FLC parks; 0 selects monitor.DefaultWaitTimeout.
	FLCTimeout int64 // nanoseconds
	// Sched exposes the slow paths to the schedule-injection kernel.
	Sched *sched.Hooks
}

// Space is the shared runtime for any number of Compact locks: contention
// configuration, the monitor table, and slow-path-only counters. The fast
// paths count nothing — a shared atomic on every acquire would serialize
// the very sessions the flyweight layout is built to scale.
type Space struct {
	table *Table
	cfg   SpaceConfig

	// Slow-path counters (never touched by fast paths).
	slowAcquires atomic.Uint64
	inflations   atomic.Uint64
	deflations   atomic.Uint64
	fatEnters    atomic.Uint64
	flcWaits     atomic.Uint64
}

// NewSpace creates a lock space over the given table (nil allocates a
// default table).
func NewSpace(t *Table, cfg SpaceConfig) *Space {
	if t == nil {
		t = New(Config{})
	}
	if cfg.Tier1 <= 0 {
		cfg.Tier1 = 32
	}
	if cfg.Tier2 <= 0 {
		cfg.Tier2 = 16
	}
	if cfg.Tier3 <= 0 {
		cfg.Tier3 = 4
	}
	if cfg.FLCTimeout <= 0 {
		cfg.FLCTimeout = int64(monitor.DefaultWaitTimeout)
	}
	return &Space{table: t, cfg: cfg}
}

// Table returns the space's monitor table.
func (sp *Space) Table() *Table { return sp.table }

// Counters returns the space's slow-path counters.
func (sp *Space) Counters() map[string]uint64 {
	return map[string]uint64{
		"slowAcquires": sp.slowAcquires.Load(),
		"inflations":   sp.inflations.Load(),
		"deflations":   sp.deflations.Load(),
		"fatEnters":    sp.fatEnters.Load(),
		"flcWaits":     sp.flcWaits.Load(),
	}
}

// Lock acquires c for tid: one CAS when free, the table-backed slow path
// otherwise.
func (sp *Space) Lock(c *Compact, tid uint64) {
	if c.word.CompareAndSwap(0, lockword.ConvOwned(tid, 0)) {
		return
	}
	sp.slowLock(c, tid)
}

// Unlock releases one level of ownership: a plain store when the low byte
// is clean, the slow path otherwise.
func (sp *Space) Unlock(c *Compact, tid uint64) {
	v := c.word.Load()
	if lockword.ConvFastReleasable(v) {
		if !lockword.ConvHeldBy(v, tid) {
			panic("montable: Unlock by non-owner")
		}
		c.word.Store(0)
		return
	}
	sp.slowUnlock(c, tid, v)
}

// HeldBy reports whether tid currently owns c (flat or fat).
func (sp *Space) HeldBy(c *Compact, tid uint64) bool {
	v := c.word.Load()
	if !lockword.Inflated(v) {
		return lockword.ConvHeldBy(v, tid)
	}
	h, ok := sp.table.PinWord(v, tid)
	if !ok {
		return lockword.ConvHeldBy(c.word.Load(), tid)
	}
	held := h.Mon.HeldBy(tid)
	h.Unpin()
	return held
}

func (sp *Space) slowLock(c *Compact, tid uint64) {
	sp.slowAcquires.Add(1)
	for {
		sp.cfg.Sched.Point(tid, sched.PAcquireCAS)
		v := c.word.Load()
		switch {
		case v == 0:
			if c.word.CompareAndSwap(0, lockword.ConvOwned(tid, 0)) {
				return
			}
		case lockword.Inflated(v):
			if sp.fatEnter(c, v, tid) {
				return
			}
		case lockword.ConvHeldBy(v, tid):
			// Reentrant: bump the recursion bits, or inflate when they
			// saturate.
			if lockword.ConvRec(v) >= lockword.ConvRecMax {
				sp.inflateAsOwner(c, v, tid, 1)
				return
			}
			if c.word.CompareAndSwap(v, v+lockword.ConvRecOne) {
				return
			}
		default:
			// Held by another thread: three-tier spinning, then FLC
			// parking and inflation through the table.
			if sp.spinAcquire(c, tid) {
				return
			}
			sp.contendAndInflate(c, tid)
			return
		}
	}
}

func (sp *Space) spinAcquire(c *Compact, tid uint64) bool {
	for i := 0; i < sp.cfg.Tier3; i++ {
		for j := 0; j < sp.cfg.Tier2; j++ {
			sp.cfg.Sched.Point(tid, sched.PSpin)
			v := c.word.Load()
			if v == 0 {
				if c.word.CompareAndSwap(0, lockword.ConvOwned(tid, 0)) {
					return true
				}
			} else if v&lockword.LowByte != 0 {
				return false
			}
			spinBackoff(sp.cfg.Tier1)
		}
		runtime.Gosched()
	}
	return false
}

// contendAndInflate is the table-backed END_OF_SPIN path: bind the table
// entry ONCE, keep the pin across FLC parks (so the sweeper cannot
// reclaim the entry this contender is parked on), and either grab the
// freed flat lock and inflate it or join the already-inflated monitor.
func (sp *Space) contendAndInflate(c *Compact, tid uint64) {
	h := sp.table.Bind(&c.word, tid)
	m := h.Mon
	for {
		v := c.word.Load()
		switch {
		case lockword.Inflated(v):
			if v&^lockword.FLCBit == h.Word {
				// Our binding is published (perhaps with a stray FLC bit
				// set by a contender that lost the inflation race): enter
				// through the pinned handle. On failure the lock deflated
				// while we were queued — retry from the (still pinned)
				// top.
				if sp.fatEnterPinned(c, h, tid) {
					h.Unpin()
					return
				}
				continue
			}
			// A different ticket is published — only possible after our
			// binding was reclaimed and the lock re-inflated, which
			// cannot happen while we hold the pin; defensive retry.
			h.UnpinReclaim(tid)
			sp.slowLock(c, tid)
			return
		case lockword.Field(v) == 0:
			// Free (possibly with a stale FLC bit): grab it, then
			// publish the ticket word. The CAS clears FLC.
			if c.word.CompareAndSwap(v, lockword.ConvOwned(tid, 0)) {
				sp.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
					m.Enter(tid)
				})
				sp.inflations.Add(1)
				c.word.Store(h.Word)
				m.RawLock()
				m.BroadcastLocked() // other FLC waiters must re-read
				m.RawUnlock()
				h.Unpin()
				return
			}
		default:
			// Held: announce contention and park (timed — the FLC bit
			// can be clobbered by a racing fast release).
			c.word.Or(lockword.FLCBit)
			sp.cfg.Sched.Park(tid, sched.PFLCPark, func() {
				m.RawLock()
				v = c.word.Load()
				if !lockword.Inflated(v) && lockword.Field(v) != 0 {
					sp.flcWaits.Add(1)
					m.WaitLocked(time.Duration(sp.cfg.FLCTimeout))
				}
				m.RawUnlock()
			})
		}
	}
}

// fatEnter resolves an observed ticket word and enters the monitor. It
// returns false when the caller must retry from the top: the ticket was
// stale, or the lock deflated before the monitor was entered.
func (sp *Space) fatEnter(c *Compact, v uint64, tid uint64) bool {
	h, ok := sp.table.PinWord(v, tid)
	if !ok {
		return false // stale ticket: re-read the word
	}
	if sp.fatEnterPinned(c, h, tid) {
		h.Unpin()
		return true
	}
	h.UnpinReclaim(tid)
	return false
}

// fatEnterPinned enters the pinned handle's monitor; the caller keeps
// ownership of the pin in every outcome. As in vmlock, entering the
// monitor and then finding the word deflated means the fat episode ended
// — exit and let the caller retry flat. A stray FLC bit on the ticket
// word is ignored: the monitor, not the bit, is the mutual exclusion.
func (sp *Space) fatEnterPinned(c *Compact, h Handle, tid uint64) bool {
	m := h.Mon
	sp.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
		m.Enter(tid)
	})
	if c.word.Load()&^lockword.FLCBit == h.Word {
		sp.fatEnters.Add(1)
		return true
	}
	m.Exit(tid)
	return false
}

// inflateAsOwner inflates a flat lock held by tid (recursion saturation),
// transferring the flat recursion depth plus extra into the monitor.
func (sp *Space) inflateAsOwner(c *Compact, v uint64, tid uint64, extra uint32) {
	h := sp.table.Bind(&c.word, tid)
	m := h.Mon
	sp.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
		m.Enter(tid)
	})
	m.SetRecursionOwned(tid, uint32(lockword.ConvRec(v))+extra)
	sp.inflations.Add(1)
	c.word.Store(h.Word)
	m.RawLock()
	m.BroadcastLocked()
	m.RawUnlock()
	h.Unpin()
}

func (sp *Space) slowUnlock(c *Compact, tid uint64, v uint64) {
	switch {
	case lockword.Inflated(v):
		h, ok := sp.table.PinWord(v, tid)
		if !ok {
			// The owner's ticket cannot go stale while it owns the
			// monitor (owned monitors are never quiescent).
			panic("montable: Unlock resolved a stale ticket while owned")
		}
		m := h.Mon
		deflated := false
		deflate := func() {
			sp.deflations.Add(1)
			c.word.Store(m.SavedCounter) // 0 for conventional-layout locks
			deflated = true
		}
		sp.cfg.Sched.Block(tid, sched.PDeflate, func() {
			m.ExitDeflating(tid, deflate)
		})
		if deflated {
			h.UnpinReclaim(tid)
		} else {
			h.Unpin()
		}
	case lockword.ConvHeldBy(v, tid) && lockword.ConvRec(v) > 0:
		subWord(&c.word, lockword.ConvRecOne)
	case lockword.ConvHeldBy(v, tid):
		// FLC is set: release under the entry's monitor mutex and wake
		// parked contenders. If no binding exists the FLC bit is a stray
		// left over from a reclaimed episode — nobody can be parked on a
		// reclaimed (pin-guarded) monitor, so a plain store suffices.
		if h, ok := sp.table.FindBound(&c.word, tid); ok {
			m := h.Mon
			m.RawLock()
			c.word.Store(0)
			m.BroadcastLocked()
			m.RawUnlock()
			h.UnpinReclaim(tid)
		} else {
			c.word.Store(0)
		}
	default:
		panic("montable: Unlock by non-owner (slow path)")
	}
}

// spinBackoff wastes roughly n loop iterations (the tier-1 loop).
//
//go:noinline
func spinBackoff(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += i
	}
	return x
}

// subWord atomically subtracts delta from w.
func subWord(w *atomic.Uint64, delta uint64) { w.Add(^delta + 1) }
