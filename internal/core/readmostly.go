package core

import (
	"sync/atomic"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/sched"
)

// errUpgradeRestart is the internal unwind signal raised when an in-place
// upgrade fails: the lock has been acquired the slow way (Figure 17's
// solero_slow_enter arm) and the section must re-execute holding it.
type upgradeRestart struct{}

var errUpgradeRestart any = upgradeRestart{}

// Section is the handle a read-mostly critical section uses to announce
// writes (§5). The JIT's read-mostly codegen calls BeforeWrite ahead of
// every heap store or side effect; hand-written sections must do the same.
type Section struct {
	l *Lock
	t *jthread.Thread
	// v is the speculative snapshot; 0 when the section runs holding the
	// lock from the start.
	v uint64
	// holding is true once the thread owns the lock for this section
	// (entered holding, upgraded in place, or re-executed after a failed
	// upgrade).
	holding bool
	// upgraded is true when this section acquired the lock mid-flight
	// and must release it on the way out.
	upgraded bool
}

// inertWord is never written: a speculative frame on it never goes stale.
var inertWord atomic.Uint64

// Holding reports whether the section currently owns the lock (writes are
// safe without further ado).
func (s *Section) Holding() bool { return s.holding }

// Upgraded reports whether this section acquired the lock mid-flight.
func (s *Section) Upgraded() bool { return s.upgraded }

// BeforeWrite makes the section safe to write shared state, following
// Figure 17: if the section is speculative, it tries to CAS the saved lock
// value to an owned word — succeeding proves no writer intervened since
// entry, so every read so far is consistent and execution continues
// holding the lock. If the CAS fails, the lock is acquired the slow way
// and the section unwinds to re-execute from the top while holding.
func (s *Section) BeforeWrite() {
	if s.holding {
		return
	}
	l, t := s.l, s.t
	l.cfg.Sched.Point(t.ID(), sched.PUpgrade)
	if l.word.CompareAndSwap(s.v, lockword.SoleroOwned(t.ID(), 0)) {
		t.PushOwner(&l.word, s.v)
		s.holding, s.upgraded = true, true
		s.retireFrame()
		l.inc(cUpgrades)
		// An upgrade both acquires the lock and proves the reads so
		// far: it is an Acquire for the counter-pairing oracle plus
		// the upgrade marker itself.
		l.cfg.History.Record(history.Acquire, t.ID(), s.v)
		l.cfg.History.Record(history.Upgrade, t.ID(), s.v)
		return
	}
	if l.HeldBy(t) {
		// Figure 17's hold_lock(obj): the thread already owns the
		// lock (reentrant structure); writing is safe.
		s.holding = true
		s.retireFrame()
		return
	}
	// Not holding and the snapshot is stale: acquire for real, then
	// unwind so the section re-executes holding the lock.
	l.inc(cUpgradeFailures)
	l.Lock(t)
	s.holding = true
	panic(errUpgradeRestart)
}

// retireFrame makes the section's speculative frame inert once the thread
// owns the lock, or checkpoints would abort a thread that now legitimately
// holds it. The frame stays on the stack for runSpeculative to pop.
func (s *Section) retireFrame() {
	s.t.PopSpec()
	s.t.PushSpec(&inertWord, 0)
}

// hold makes s, if any, a section holding the lock from its first
// statement: entered holding (reentrant or fat), re-executed after a failed
// upgrade, or run under the writing protocol.
func (s *Section) hold() {
	if s != nil {
		s.v, s.holding, s.upgraded = 0, true, false
	}
}

// ReadMostly executes fn as a read-mostly critical section (§5): it runs
// elided like a read-only section, but fn may write shared state after
// calling BeforeWrite on its Section. The common no-write execution never
// touches the lock variable; an execution that writes upgrades in place.
// The Section is valid only while fn runs: the thread reuses it for its
// next read-mostly section.
func (l *Lock) ReadMostly(t *jthread.Thread, fn func(*Section)) {
	// Every execution of fn runs on this one record.
	s := takeSection(t)
	defer releaseSection(t, s)
	s.l, s.t = l, t
	l.read(t, func() { fn(s) }, plan{s: s})
}

// sectionStack is a thread's free list of Section records. fn's *Section
// escapes, so ReadMostly reuses a record per nesting level instead of
// allocating one per call.
type sectionStack []*Section

// takeSection pops a free record off t's stack, allocating when it is empty.
func takeSection(t *jthread.Thread) *Section {
	ss, _ := t.Local().(*sectionStack)
	if ss == nil || len(*ss) == 0 {
		return new(Section)
	}
	s := (*ss)[len(*ss)-1]
	*ss = (*ss)[:len(*ss)-1]
	return s
}

// releaseSection clears s and pushes it back on t's stack.
func releaseSection(t *jthread.Thread, s *Section) {
	ss, _ := t.Local().(*sectionStack)
	if ss == nil {
		ss = new(sectionStack)
		t.SetLocal(ss)
	}
	*s = Section{}
	*ss = append(*ss, s)
}
