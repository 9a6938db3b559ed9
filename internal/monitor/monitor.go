// Package monitor provides the fat-lock substrate for bi-modal (tasuki)
// locking: a heavyweight, reentrant monitor standing in for the OS monitors
// a JVM maps to contended objects.
//
// A flat lock inflates to a Monitor when contention persists (or its
// recursion bits saturate); it can later deflate back to a flat lock when
// contention subsides. For SOLERO, the monitor additionally stashes the
// incremented sequence counter captured at inflation (SavedCounter) so that
// deflation republishes a counter different from anything a concurrently
// eliding reader saved before inflation — the reader's validation then fails
// and it retries, exactly as the paper requires (§3.2).
//
// Beyond reentrant Enter/Exit, the package exposes the raw internal mutex
// plus timed wait / broadcast primitives (RawLock, WaitLocked,
// BroadcastLocked). The thin-lock contention protocol (FLC bit) is built on
// these: a contender sets the FLC bit and parks on the monitor; the owner's
// slow release broadcasts. Waits are timed because the owner's *fast*
// release path is a plain store that can clobber an FLC bit set in the
// narrow window between the owner's check and its store — the same race
// production JVMs bound with timed parking rather than by putting a CAS on
// the release fast path.
package monitor

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// DefaultWaitTimeout bounds FLC parking so a clobbered FLC bit costs at most
// one timeout rather than a lost wakeup.
const DefaultWaitTimeout = 2 * time.Millisecond

// Monitor is a heavyweight reentrant lock with a wait queue.
type Monitor struct {
	id uint64

	mu      sync.Mutex
	owner   uint64 // owning thread id, 0 if unowned
	rec     uint32 // recursion depth while owned
	waitq   chan struct{}
	waiters int
	condq   []*condWaiter // Object.wait queue

	// parked counts the WaitLocked callers on waitq that are still
	// registered with sched as parked: the next broadcast releases them.
	parked int

	// FIFO entry tickets: contended Enter calls are served strictly in
	// arrival order. Besides being a fair policy, this makes the handoff
	// order a deterministic function of the Enter call order, which the
	// schedule-injection harness (internal/sched) relies on — a broadcast
	// waking two queued enterers must not let the mutex race pick the
	// winner.
	nextTicket  uint64 // next ticket to hand out
	serveTicket uint64 // lowest ticket not yet served

	// SavedCounter holds, while the associated lock is inflated, the
	// pre-inflation SOLERO word advanced by one counter unit. Deflation
	// writes it back to the lock word. Guarded by mu.
	SavedCounter uint64

	// Stats (atomics; readable without mu).
	enters          atomic.Uint64
	contendedEnters atomic.Uint64
	broadcasts      atomic.Uint64
	timeouts        atomic.Uint64
}

// ID returns the label the monitor was created with (see NewLocal).
func (m *Monitor) ID() uint64 { return m.id }

// RawLock acquires the monitor's internal mutex. It does NOT make the caller
// the monitor's owner; it only serializes access to the monitor's state and
// to the inflation/deflation protocol.
func (m *Monitor) RawLock() { m.mu.Lock() }

// RawUnlock releases the internal mutex.
func (m *Monitor) RawUnlock() { m.mu.Unlock() }

// WaitLocked parks the caller until the next broadcast or until timeout
// (timeout <= 0 means DefaultWaitTimeout). The internal mutex must be held;
// it is released while parked and reacquired before return. Returns false
// on timeout.
func (m *Monitor) WaitLocked(timeout time.Duration) bool {
	if timeout <= 0 {
		timeout = DefaultWaitTimeout
	}
	ch := m.waitq
	if ch == nil {
		ch = make(chan struct{})
		m.waitq = ch
	}
	m.waiters++
	m.parked++
	sched.NotePark()
	m.mu.Unlock()
	timer := time.NewTimer(timeout)
	woken := true
	select {
	case <-ch:
	case <-timer.C:
		woken = false
		m.timeouts.Add(1)
	}
	timer.Stop()
	m.mu.Lock()
	m.waiters--
	if m.waitq == ch {
		// Timed out with no broadcast since: release our own park.
		m.parked--
		sched.NoteUnpark(1)
	}
	return woken
}

// BroadcastLocked wakes every parked thread. The internal mutex must be held.
func (m *Monitor) BroadcastLocked() {
	if m.waitq != nil {
		close(m.waitq)
		m.waitq = nil
		sched.NoteUnpark(m.parked)
		m.parked = 0
	}
	m.broadcasts.Add(1)
}

// Enter acquires the monitor as tid, reentrantly, blocking while another
// thread owns it.
func (m *Monitor) Enter(tid uint64) {
	m.enters.Add(1)
	m.mu.Lock()
	if m.owner == tid {
		m.rec++
		m.mu.Unlock()
		return
	}
	if m.owner == 0 && m.nextTicket == m.serveTicket {
		// Unowned with an empty queue: enter directly.
		m.owner = tid
		m.rec = 0
		m.mu.Unlock()
		return
	}
	m.contendedEnters.Add(1)
	ticket := m.nextTicket
	m.nextTicket++
	for m.owner != 0 || m.serveTicket != ticket {
		m.WaitLocked(0)
	}
	m.serveTicket++
	m.owner = tid
	m.rec = 0
	m.mu.Unlock()
}

// Exit releases one level of ownership held by tid. It returns true when the
// monitor became fully unowned. Exiting a monitor not owned by tid panics —
// that is a VM bug, the analogue of an IllegalMonitorStateException raised
// against the runtime itself.
func (m *Monitor) Exit(tid uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner != tid {
		panic("monitor: Exit by non-owner")
	}
	if m.rec > 0 {
		m.rec--
		return false
	}
	m.owner = 0
	m.BroadcastLocked()
	return true
}

// SetRecursionOwned sets the recursion depth directly; the caller must own
// the monitor. Owner-side inflation uses it to transfer the flat lock's
// saturated recursion count into the fat lock.
func (m *Monitor) SetRecursionOwned(tid uint64, rec uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner != tid {
		panic("monitor: SetRecursionOwned by non-owner")
	}
	m.rec = rec
}

// ExitDeflating releases one level of ownership held by tid. When the
// release is full (recursion exhausted) and no thread is parked on the
// monitor, it invokes deflate — still serialized under the internal mutex,
// before ownership is surrendered — so the caller can atomically demote the
// lock back to flat mode. It reports whether the monitor was fully released
// and whether deflate ran.
func (m *Monitor) ExitDeflating(tid uint64, deflate func()) (released, deflated bool) {
	return m.exitDeflating(tid, deflate, false)
}

// ExitDeflatingEager is ExitDeflating without the quiet-queue condition: a
// full release deflates even while enterers are queued or parked. It is for
// locks whose fat entry re-checks the word after entering the monitor, so a
// queued enterer that finds the lock deflated exits and retries flat; the
// broadcast on release wakes the parked ones to re-read the word.
func (m *Monitor) ExitDeflatingEager(tid uint64, deflate func()) (released, deflated bool) {
	return m.exitDeflating(tid, deflate, true)
}

func (m *Monitor) exitDeflating(tid uint64, deflate func(), eager bool) (released, deflated bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner != tid {
		panic("monitor: ExitDeflating by non-owner")
	}
	if m.rec > 0 {
		m.rec--
		return false, false
	}
	// Queued enterers are counted by their tickets, not by waiters: a
	// queued thread is committed to entering even while it is between
	// timed parks, so deflation must not yank the monitor from under it.
	if deflate != nil && (eager || m.waiters == 0 && m.nextTicket == m.serveTicket) {
		deflate()
		deflated = true
	}
	m.owner = 0
	m.BroadcastLocked()
	return true, deflated
}

// EnterQuiescentLocked reports whether the monitor's *entry* protocol is
// quiescent: unowned, no parked waiters, no outstanding entry tickets. This
// is exactly ExitDeflating's guard, so an enter-quiescent monitor's lock
// word may be safely demoted to flat mode. Condition waiters are NOT
// counted — like ExitDeflating, word deflation is legal while threads sit
// on the wait set (they reacquire through the flat path on wakeup). The
// internal mutex must be held.
func (m *Monitor) EnterQuiescentLocked() bool {
	return m.owner == 0 && m.waiters == 0 && m.nextTicket == m.serveTicket
}

// QuiescentLocked reports full quiescence: enter-quiescent AND an empty
// condition queue. Only a fully quiescent monitor may be unbound from a
// table entry and recycled — a condition waiter still holds a reference to
// the monitor's wait set. The internal mutex must be held.
func (m *Monitor) QuiescentLocked() bool {
	return m.EnterQuiescentLocked() && len(m.condq) == 0
}

// ResetLocked returns a fully quiescent monitor to its zero state so a
// table entry can recycle it for the next binding. It panics if the monitor
// is not fully quiescent — reclaiming a live monitor is the lost-waiter bug
// the churn tests exist to catch. The internal mutex must be held.
func (m *Monitor) ResetLocked() {
	if !m.QuiescentLocked() {
		panic("monitor: ResetLocked on non-quiescent monitor")
	}
	m.rec = 0
	m.SavedCounter = 0
	m.nextTicket = 0
	m.serveTicket = 0
}

// ForceResetLocked resets the monitor WITHOUT the quiescence check,
// abandoning any queued enterers and condition waiters. It exists solely
// for the seeded lost-waiter bug (montable.BugLostWaiter) that the inverted
// CI step must catch; correct code never calls it. The internal mutex must
// be held.
func (m *Monitor) ForceResetLocked() {
	m.owner = 0
	m.rec = 0
	m.SavedCounter = 0
	m.nextTicket = 0
	m.serveTicket = 0
	sched.NoteUnpark(len(m.condq))
	m.condq = nil
}

// HeldBy reports whether tid currently owns the monitor.
func (m *Monitor) HeldBy(tid uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owner == tid
}

// Stats is a snapshot of monitor counters.
type Stats struct {
	Enters          uint64
	ContendedEnters uint64
	Broadcasts      uint64
	Timeouts        uint64
}

// StatsSnapshot returns current counter values.
func (m *Monitor) StatsSnapshot() Stats {
	return Stats{
		Enters:          m.enters.Load(),
		ContendedEnters: m.contendedEnters.Load(),
		Broadcasts:      m.broadcasts.Load(),
		Timeouts:        m.timeouts.Load(),
	}
}

// NewLocal allocates a monitor. The compact monitor table
// (internal/montable) owns its monitors' identity — an inflated word
// carries a table ticket, not a monitor id — so id is only the caller's
// label; montable uses the entry's arena position.
func NewLocal(id uint64) *Monitor { return &Monitor{id: id} }
