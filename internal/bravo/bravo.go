// Package bravo implements a BRAVO-style biased reader-writer lock (Dice &
// Kogan, "BRAVO — Biased Locking for Reader-Writer Locks", PAPERS.md): a
// scalability layer over the repo's j.u.c.-style rwlock baseline that
// removes the centralized read-acquire RMW the paper's RWLock results
// suffer from.
//
// Readers in the common (read-biased) state publish themselves in a global
// cache-line-padded visible-reader table — one CAS on a slot picked by
// mixing the thread id and the lock address, with no shared state-word RMW
// — and release with a plain store to the same slot. Writers acquire the
// underlying rwlock, flip the lock's bias bit off, and then *revoke*: scan
// the table and wait for every slot naming this lock to empty. The
// published-slot/recheck-bias handshake against the writer's
// clear-bias/scan order makes the two sides safe under Go's sequentially
// consistent atomics (the paper's store-load fence placement).
//
// Because slot hashing can collide, a reader cannot recompute at release
// time which path its acquire took; each acquisition pushes a token on the
// thread (jthread.PushLockToken) naming either its table slot or the
// underlying-lock slow path.
//
// Rebias is adaptive and revocation-cost-capped: each revocation measures
// its own duration and inhibits re-enabling the bias until Multiplier
// times that cost has elapsed, so a write-heavy phase settles into plain
// rwlock behavior while a read-heavy phase quickly re-earns the biased
// fast path.
package bravo

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/jthread"
	"repro/internal/metrics"
	"repro/internal/rwlock"
	"repro/internal/sched"
	"repro/internal/stats"
)

// TableSlots is the global visible-reader table size (a power of two).
const TableSlots = 1024

// tableMask masks a SlotHash down to a table index.
const tableMask = TableSlots - 1

// readerSlot is one padded visible-reader entry: the lock a reader has
// published itself against, or nil.
type readerSlot struct {
	l atomic.Pointer[Lock]
	_ [stats.FalseSharingRange - 8]byte
}

// table is the process-global visible-reader table, shared by all BRAVO
// locks exactly as in the paper (slot hashing mixes the lock address, so
// distinct locks rarely collide; a collision only costs a slow-path read).
var table [TableSlots]readerSlot

// slotIndex picks t's slot for lock l.
func slotIndex(tid uint64, l *Lock) uint64 {
	return stats.SlotHash(tid, uintptr(unsafe.Pointer(l))) & tableMask
}

// DefaultMultiplier is the paper's rebias multiplier N: after a revocation
// costing C, rebias is inhibited for N×C.
const DefaultMultiplier = 9

// DefaultMaxInhibit caps the inhibit window so one pathological revocation
// (a descheduled reader, say) cannot disable the bias for minutes.
const DefaultMaxInhibit = 100 * time.Millisecond

// Config tunes a BRAVO lock. The zero value selects all defaults.
type Config struct {
	// Multiplier scales the measured revocation cost into the rebias
	// inhibit window. 0 selects DefaultMultiplier; a negative value
	// disables the inhibit window entirely (rebias immediately — the
	// deterministic setting schedule-injection tests use, since the
	// window is wall-clock-based).
	Multiplier int
	// MaxInhibit caps the inhibit window (0: DefaultMaxInhibit).
	MaxInhibit time.Duration
	// DisableBias pins the lock in its unbiased state: every operation
	// goes to the underlying rwlock (an ablation/debug switch).
	DisableBias bool
	// Sched wires the publish/revoke handshake and the underlying rwlock
	// into the schedule-injection kernel.
	Sched *sched.Hooks
	// Metrics, when set, records each revocation scan's cost under the
	// "revocation-scan" taxonomy cause and into the revoke_scan histogram,
	// and is inherited by the underlying rwlock for its gate parks. Nil
	// costs one branch per revocation.
	Metrics *metrics.Registry
}

// Lock is a BRAVO biased reader-writer lock. Use New.
type Lock struct {
	cfg Config
	rw  rwlock.RWLock

	// rbias is the bias bit: 1 means readers may publish in the table.
	rbias atomic.Uint32
	// inhibitUntil is the UnixNano time before which rebias is inhibited.
	inhibitUntil atomic.Int64

	// now is the clock (UnixNano); tests substitute a fake.
	now func() int64

	// biasedReads is striped: it is bumped on the biased fast path, where
	// a centralized counter would reintroduce the very RMW BRAVO removes.
	biasedReads *stats.Striped
	slowReads   atomic.Uint64
	revocations atomic.Uint64
	rebiases    atomic.Uint64
	lastRevoke  atomic.Int64 // nanoseconds
}

// New creates a BRAVO lock (nil cfg selects all defaults).
func New(cfg *Config) *Lock {
	l := &Lock{now: func() int64 { return time.Now().UnixNano() }}
	if cfg != nil {
		l.cfg = *cfg
	}
	if l.cfg.Multiplier == 0 {
		l.cfg.Multiplier = DefaultMultiplier
	}
	if l.cfg.MaxInhibit == 0 {
		l.cfg.MaxInhibit = DefaultMaxInhibit
	}
	l.rw.Sched = l.cfg.Sched
	l.rw.Metrics = l.cfg.Metrics
	l.biasedReads = stats.NewStriped(0)
	return l
}

// Biased reports whether the lock currently has its read bias enabled.
func (l *Lock) Biased() bool { return l.rbias.Load() == 1 }

// RLock acquires the lock in read mode for t.
func (l *Lock) RLock(t *jthread.Thread) {
	tid := t.ID()
	if l.rbias.Load() == 1 {
		idx := slotIndex(tid, l)
		s := &table[idx]
		if s.l.CompareAndSwap(nil, l) {
			l.cfg.Sched.Point(tid, sched.PReadPublish)
			// Recheck after publishing (the paper's store-load
			// handshake): a writer that cleared the bias before our
			// recheck will see the published slot in its scan; a writer
			// that cleared it earlier must not be waited out from the
			// fast path.
			if l.rbias.Load() == 1 {
				t.PushLockToken(idx + 1)
				l.biasedReads.Add(t.StripeIndex(), 1)
				return
			}
			s.l.Store(nil) // lost the race with a revoking writer: undo
		}
	}
	l.slowRLock(t)
}

// slowRLock is the unbiased read path: the underlying rwlock, plus the
// adaptive rebias attempt.
func (l *Lock) slowRLock(t *jthread.Thread) {
	l.rw.RLock(t)
	t.PushLockToken(0)
	l.slowReads.Add(1)
	if l.cfg.DisableBias || l.rbias.Load() == 1 {
		return
	}
	if l.cfg.Multiplier >= 0 && l.now() < l.inhibitUntil.Load() {
		return
	}
	// A downgrading write holder may not re-arm the bias: its own write
	// hold is still excluding other readers, and a biased read racing it
	// would bypass that exclusion. Any *other* reader holds the read lock
	// here, which excludes writers for the whole CAS.
	if l.rw.WriteHeldBy(t) {
		return
	}
	if l.rbias.CompareAndSwap(0, 1) {
		l.rebiases.Add(1)
	}
}

// RUnlock releases one read hold of t.
func (l *Lock) RUnlock(t *jthread.Thread) {
	tok := t.PopLockToken()
	if tok == 0 {
		l.rw.RUnlock(t)
		return
	}
	// Biased release: one plain store, no shared RMW.
	table[tok-1].l.Store(nil)
}

// Lock acquires the lock in write mode for t (reentrant, via the
// underlying rwlock). If the lock was read-biased, the writer revokes the
// bias before its critical section: clear the bit, then scan the table for
// published readers and wait each one out.
func (l *Lock) Lock(t *jthread.Thread) {
	l.rw.Lock(t)
	if l.rbias.Load() == 1 {
		l.revoke(t)
	}
}

// revoke flips the bias off and waits for every published reader of this
// lock to leave. Called with the write lock held; the bias cannot be
// re-armed while we hold it (slowRLock's rebias runs under a read hold),
// so a reentrant write acquisition never scans twice.
func (l *Lock) revoke(t *jthread.Thread) {
	tid := t.ID()
	l.rbias.Store(0)
	start := l.now()
	for i := range table {
		s := &table[i]
		for s.l.Load() == l {
			l.cfg.Sched.Point(tid, sched.PRevokeScan)
			runtime.Gosched()
		}
	}
	end := l.now()
	cost := end - start
	l.revocations.Add(1)
	l.lastRevoke.Store(cost)
	l.cfg.Metrics.RecordContention(t.StripeIndex(), metrics.AbortRevocationScan, time.Duration(cost))
	if l.cfg.Multiplier > 0 {
		win := cost * int64(l.cfg.Multiplier)
		if maxWin := int64(l.cfg.MaxInhibit); win > maxWin {
			win = maxWin
		}
		l.inhibitUntil.Store(end + win)
	}
}

// Unlock releases one write hold of t.
func (l *Lock) Unlock(t *jthread.Thread) {
	l.rw.Unlock(t)
}

// ReadSync runs fn holding the lock in read mode.
func (l *Lock) ReadSync(t *jthread.Thread, fn func()) {
	l.RLock(t)
	defer l.RUnlock(t)
	fn()
}

// WriteSync runs fn holding the lock in write mode.
func (l *Lock) WriteSync(t *jthread.Thread, fn func()) {
	l.Lock(t)
	defer l.Unlock(t)
	fn()
}

// Stats returns BRAVO's own counters merged with the underlying rwlock's
// (whose readAcquires count only the slow, unbiased reads).
func (l *Lock) Stats() map[string]uint64 {
	m := l.rw.Stats()
	m["biasedReads"] = l.biasedReads.Load()
	m["slowReads"] = l.slowReads.Load()
	m["revocations"] = l.revocations.Load()
	m["rebiases"] = l.rebiases.Load()
	m["lastRevokeNanos"] = uint64(l.lastRevoke.Load())
	return m
}
