// Package rwlock implements the paper's second baseline ("RWLock"): a
// reentrant read-write lock in the style of
// java.util.concurrent.locks.ReentrantReadWriteLock (non-fair mode).
//
// Multiple threads may hold the lock in read mode; write mode is exclusive.
// The write holder may reentrantly take both modes. As in j.u.c., *both*
// acquisition and release of the read lock perform an atomic RMW on the
// shared state word, and per-thread read-hold accounting goes through a
// lookup structure (standing in for the ThreadLocal HoldCounter) — the very
// overheads the paper measures against SOLERO, whose read sections touch no
// shared word at all.
//
// The hold table is a lock-free array of cache-line-padded slots keyed by
// stats.SlotHash of thread id and lock address: a thread CAS-claims an
// empty slot in its bounded probe window, bumps the count it now owns, and
// frees the slot when its count returns to zero. Only the full-window
// collision case falls back to a mutex-guarded overflow map.
package rwlock

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/jthread"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// writerBit marks the state word as write-held; the low bits count readers.
const writerBit = uint64(1) << 63

const (
	// holdSlots is the hold-table size (power of two).
	holdSlots = 64
	// holdProbe bounds the linear-probe window: a thread that finds its
	// whole window claimed spills to the overflow map rather than scanning
	// all slots on every read acquisition.
	holdProbe = 8
)

// holdSlot is one padded hold-table entry. tid is CAS-claimed; n is written
// only by the claiming thread (readers of other threads' counts go through
// ReadHoldCount, hence the atomic).
type holdSlot struct {
	tid atomic.Uint64
	n   atomic.Int64
	_   [stats.FalseSharingRange - 16]byte
}

// RWLock is a reentrant read-write lock. The zero value is ready to use.
type RWLock struct {
	// Sched, when set, wires the lock's retry loops and gate parks into
	// the schedule-injection kernel so the invariant oracle can explore
	// this backend too. Nil (production) costs one predictable branch.
	Sched *sched.Hooks

	// Metrics, when set, times each gate park as a "gate-park" wait and
	// each contended acquisition, first stall to ownership, as an acquire
	// wait (metrics.StartWait/EndWait). Hooks live only on the
	// already-parking slow path; nil costs one branch per park.
	Metrics *metrics.Registry

	// state holds writerBit plus the active reader count.
	state atomic.Uint64
	// writerTID is the write-holding thread id (0 when none).
	writerTID atomic.Uint64
	// wrec is the writer's reentrancy depth; owner-access only, ordered
	// by the state word's atomics.
	wrec uint32

	// The gate: a persistent condition variable instead of a channel
	// reallocated on every wakeup cycle — parking and waking are
	// allocation-free in steady state. parked gates the releaser's
	// broadcast so the uncontended release path never touches the mutex.
	gateOnce sync.Once
	gateMu   sync.Mutex
	gateCond *sync.Cond
	parked   atomic.Int32
	// waiting counts threads inside gateCond.Wait, registered with sched
	// as parked until the next broadcast releases them. Guarded by gateMu.
	waiting int

	holds [holdSlots]holdSlot

	// Overflow hold counts for threads whose probe window was full.
	ovMu sync.Mutex
	ov   map[uint64]int

	// Stats.
	readAcquires  atomic.Uint64
	writeAcquires atomic.Uint64
	readParks     atomic.Uint64
	writeParks    atomic.Uint64
}

// slotBase returns the hash seed for t's probe window in l's hold table.
func (l *RWLock) slotBase(tid uint64) uint64 {
	return stats.SlotHash(tid, uintptr(unsafe.Pointer(l)))
}

// findSlot returns the slot already claimed by tid, or nil.
func (l *RWLock) findSlot(tid uint64) *holdSlot {
	base := l.slotBase(tid)
	for i := uint64(0); i < holdProbe; i++ {
		s := &l.holds[(base+i)&(holdSlots-1)]
		if s.tid.Load() == tid {
			return s
		}
	}
	return nil
}

// claimSlot CAS-claims an empty slot in tid's probe window, or nil if the
// window is full. Two-pass with findSlot: a thread must reuse its existing
// slot before claiming a second one, or release would mis-count.
func (l *RWLock) claimSlot(tid uint64) *holdSlot {
	base := l.slotBase(tid)
	for i := uint64(0); i < holdProbe; i++ {
		s := &l.holds[(base+i)&(holdSlots-1)]
		if s.tid.Load() == 0 && s.tid.CompareAndSwap(0, tid) {
			return s
		}
	}
	return nil
}

// addHold records one read hold for tid.
func (l *RWLock) addHold(tid uint64) {
	if s := l.findSlot(tid); s != nil {
		s.n.Add(1)
		return
	}
	if s := l.claimSlot(tid); s != nil {
		s.n.Add(1)
		return
	}
	l.ovMu.Lock()
	if l.ov == nil {
		l.ov = make(map[uint64]int)
	}
	l.ov[tid]++
	l.ovMu.Unlock()
}

// dropHold removes one read hold for tid, freeing its slot at zero.
func (l *RWLock) dropHold(tid uint64) {
	if s := l.findSlot(tid); s != nil {
		switch n := s.n.Add(-1); {
		case n == 0:
			s.tid.Store(0)
		case n < 0:
			panic("rwlock: RUnlock without matching RLock")
		}
		return
	}
	l.ovMu.Lock()
	c := l.ov[tid] - 1
	if c < 0 {
		l.ovMu.Unlock()
		panic("rwlock: RUnlock without matching RLock")
	}
	if c == 0 {
		delete(l.ov, tid)
	} else {
		l.ov[tid] = c
	}
	l.ovMu.Unlock()
}

// ReadHoldCount returns t's current read-mode reentrancy depth.
func (l *RWLock) ReadHoldCount(t *jthread.Thread) int {
	tid := t.ID()
	n := 0
	if s := l.findSlot(tid); s != nil {
		n += int(s.n.Load())
	}
	l.ovMu.Lock()
	n += l.ov[tid]
	l.ovMu.Unlock()
	return n
}

// gate returns the persistent condition variable, creating it on first park.
func (l *RWLock) gate() *sync.Cond {
	l.gateOnce.Do(func() { l.gateCond = sync.NewCond(&l.gateMu) })
	return l.gateCond
}

// park blocks t until ready() holds (checked under the gate mutex, so a
// wake between the caller's last state probe and the wait is never lost).
func (l *RWLock) park(t *jthread.Thread, ready func() bool) {
	start := l.Metrics.StartWait()
	l.parked.Add(1)
	l.Sched.Block(t.ID(), sched.PGatePark, func() {
		c := l.gate()
		c.L.Lock()
		for !ready() {
			l.waiting++
			sched.NotePark()
			c.Wait()
		}
		c.L.Unlock()
	})
	l.parked.Add(-1)
	l.Metrics.EndWait(t.StripeIndex(), metrics.WaitGatePark, start)
}

// wake broadcasts a state change to parked threads. The parked check keeps
// the common uncontended release from ever taking the gate mutex: a thread
// that registers as parked *after* the check is ordered after this
// releaser's state update and re-reads it before waiting.
func (l *RWLock) wake() {
	if l.parked.Load() == 0 {
		return
	}
	c := l.gate()
	c.L.Lock()
	c.Broadcast()
	sched.NoteUnpark(l.waiting)
	l.waiting = 0
	c.L.Unlock()
}

// RLock acquires the lock in read mode for t.
func (l *RWLock) RLock(t *jthread.Thread) {
	tid := t.ID()
	if l.writerTID.Load() == tid {
		// Write holder reading: permitted (j.u.c. allows the write
		// holder to acquire the read lock, enabling downgrade — take
		// read, release write, keep reading).
		l.state.Add(1)
		l.addHold(tid)
		l.readAcquires.Add(1)
		return
	}
	var start int64
	waited := false
	for {
		l.Sched.Point(tid, sched.PSpin)
		s := l.state.Load()
		if s&writerBit == 0 {
			if l.state.CompareAndSwap(s, s+1) {
				l.addHold(tid)
				l.readAcquires.Add(1)
				if waited {
					l.Metrics.EndWait(t.StripeIndex(), metrics.WaitAcquire, start)
				}
				return
			}
			continue
		}
		// Write-held by someone else: park until the writer leaves.
		if !waited {
			start, waited = l.Metrics.StartWait(), true
		}
		l.readParks.Add(1)
		l.park(t, func() bool { return l.state.Load()&writerBit == 0 })
	}
}

// RUnlock releases one read hold of t.
func (l *RWLock) RUnlock(t *jthread.Thread) {
	l.Sched.Point(t.ID(), sched.PRelease)
	l.dropHold(t.ID())
	if l.state.Add(^uint64(0))&^writerBit == 0 {
		l.wake()
	}
}

// Lock acquires the lock in write mode for t (reentrant).
func (l *RWLock) Lock(t *jthread.Thread) {
	tid := t.ID()
	if l.writerTID.Load() == tid {
		l.wrec++
		return
	}
	var start int64
	waited := false
	for {
		l.Sched.Point(tid, sched.PAcquireCAS)
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, writerBit) {
			l.writerTID.Store(tid)
			l.writeAcquires.Add(1)
			if waited {
				l.Metrics.EndWait(t.StripeIndex(), metrics.WaitAcquire, start)
			}
			return
		}
		if !waited {
			start, waited = l.Metrics.StartWait(), true
		}
		l.writeParks.Add(1)
		l.park(t, func() bool { return l.state.Load() == 0 })
	}
}

// Unlock releases one write hold of t.
func (l *RWLock) Unlock(t *jthread.Thread) {
	if l.writerTID.Load() != t.ID() {
		panic("rwlock: Unlock by non-write-holder")
	}
	if l.wrec > 0 {
		l.wrec--
		return
	}
	l.Sched.Point(t.ID(), sched.PRelease)
	l.writerTID.Store(0)
	l.state.Add(^writerBit + 1) // clear writerBit, keeping downgraded read holds
	l.wake()
}

// ReadSync runs fn holding the lock in read mode.
func (l *RWLock) ReadSync(t *jthread.Thread, fn func()) {
	l.RLock(t)
	defer l.RUnlock(t)
	fn()
}

// WriteSync runs fn holding the lock in write mode.
func (l *RWLock) WriteSync(t *jthread.Thread, fn func()) {
	l.Lock(t)
	defer l.Unlock(t)
	fn()
}

// Stats returns acquisition/park counters.
func (l *RWLock) Stats() map[string]uint64 {
	return map[string]uint64{
		"readAcquires":  l.readAcquires.Load(),
		"writeAcquires": l.writeAcquires.Load(),
		"readParks":     l.readParks.Load(),
		"writeParks":    l.writeParks.Load(),
	}
}
