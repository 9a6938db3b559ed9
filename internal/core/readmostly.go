package core

import (
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/sched"
	"repro/internal/trace"
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
	// framePopped tracks whether the speculative frame was already
	// retired (it must be, on upgrade, or checkpoints would abort a
	// thread that now legitimately owns the lock).
	framePopped bool
}

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
		l.saved = s.v
		s.holding, s.upgraded = true, true
		s.popFrame()
		l.inc(cUpgrades)
		l.cfg.Tracer.Record(trace.EvUpgrade, t.ID(), s.v)
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
		s.popFrame()
		return
	}
	// Not holding and the snapshot is stale: acquire for real, then
	// unwind so the section re-executes holding the lock.
	l.inc(cUpgradeFailures)
	l.Lock(t)
	s.holding = true
	s.popFrame()
	panic(errUpgradeRestart)
}

func (s *Section) popFrame() {
	if !s.framePopped {
		s.t.PopSpec()
		s.framePopped = true
	}
}

type specOutcome uint8

const (
	specOK specOutcome = iota
	specFailed
	specFailedAsync
	specRestartHolding
)

// ReadMostly executes fn as a read-mostly critical section (§5): it runs
// elided like a read-only section, but fn may write shared state after
// calling BeforeWrite on its Section. The common no-write execution never
// touches the lock variable; an execution that writes upgrades in place.
// The Section is valid only while fn runs: the thread reuses it for its
// next read-mostly section.
func (l *Lock) ReadMostly(t *jthread.Thread, fn func(*Section)) {
	// Same sampled CS-duration gate as ReadOnly: thread-local, write-free.
	if m := l.cfg.Metrics; m != nil && t.SampleTick(m.CSSampleMask()) {
		start := time.Now()
		defer m.EndCS(t.StripeIndex(), start)
	}
	// Every execution of fn runs on this one record.
	s := takeSection(t)
	defer releaseSection(t, s)
	if l.cfg.DisableElision {
		l.Lock(t)
		l.runHeldSection(t, fn, s)
		return
	}
	v := l.word.Load()
	l.cfg.Sched.Point(t.ID(), sched.PReadEnter)
	holding := false
	if !lockword.SoleroFree(v) {
		v, holding = l.slowReadEnter(t)
	}
	failures := 0
	for {
		if holding {
			// Entered holding (reentrant or fat): writes are safe
			// throughout.
			l.cfg.History.Record(history.ReadFallback, t.ID(), l.word.Load())
			*s = Section{l: l, t: t, holding: true, framePopped: true}
			l.runHolding(t, func() { fn(s) })
			return
		}
		*s = Section{l: l, t: t, v: v}
		outcome := l.runSpecUpgradable(t, v, fn, s)
		switch outcome {
		case specOK:
			if s.upgraded {
				// The section wrote: release the upgraded hold,
				// publishing a fresh counter.
				l.Unlock(t)
				return
			}
			l.cfg.Sched.Point(t.ID(), sched.PReadValidate)
			if l.word.Load() == v {
				l.bump(t, cElisionSuccesses)
				l.cfg.History.Record(history.ReadSuccess, t.ID(), v)
				return
			}
			if l.slowReadExit(t, v) {
				l.bump(t, cElisionSuccesses)
				l.cfg.History.Record(history.ReadSuccess, t.ID(), v)
				return
			}
		case specRestartHolding:
			// BeforeWrite acquired the lock after a failed upgrade;
			// re-execute holding it.
			l.inc(cFallbacks)
			l.runHeldSection(t, fn, s)
			return
		case specFailed, specFailedAsync:
			// fall through to the retry/fallback accounting
		}
		l.inc(cElisionFailures)
		l.recordAbort(t, outcome == specFailedAsync)
		failures++
		if failures >= l.cfg.MaxElisionFailures {
			l.inc(cFallbacks)
			l.cfg.Sched.Point(t.ID(), sched.PReadFallback)
			l.cfg.History.Record(history.ReadFallback, t.ID(), v)
			l.Lock(t)
			l.runHeldSection(t, fn, s)
			return
		}
		v = l.word.Load()
		if !lockword.SoleroFree(v) {
			v, holding = l.slowReadEnter(t)
		}
	}
}

// runHeldSection runs fn on s as a section holding the lock from its first
// statement (the caller acquired it) and releases the lock on the way out.
// It lives outside readMostly's retry loop because a defer inside a loop
// keeps the compiler from open-coding the caller's defers.
func (l *Lock) runHeldSection(t *jthread.Thread, fn func(*Section), s *Section) {
	defer l.Unlock(t)
	*s = Section{l: l, t: t, holding: true, framePopped: true}
	fn(s)
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

// runSpecUpgradable is runSpeculative extended with the upgrade protocol:
// it distinguishes the restart-holding unwind, and treats faults raised
// while holding (post-upgrade) as genuine, releasing the lock before
// propagating them. Like runSpeculative it calls recover only when fn did
// not return.
func (l *Lock) runSpecUpgradable(t *jthread.Thread, v uint64, fn func(*Section), s *Section) (outcome specOutcome) {
	t.PushSpec(&l.word, v)
	ran := false
	defer func() {
		s.popFrame()
		if ran {
			return
		}
		r := recover()
		if r == nil {
			return
		}
		if r == errUpgradeRestart {
			outcome = specRestartHolding
			return
		}
		if s.holding {
			// Reads are consistent once holding; the fault is
			// genuine. Release and rethrow. An upgraded section's
			// speculation already ended in its counted upgrade, so
			// only a section holding without one counts the fault.
			if !s.upgraded {
				l.inc(cGenuineFaults)
			}
			l.Unlock(t)
			panic(r)
		}
		if l.specFault(t, v, r) {
			outcome = specFailedAsync
		} else {
			outcome = specFailed
		}
	}()
	fn(s)
	ran = true
	return specOK
}
