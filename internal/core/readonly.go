package core

import (
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/sched"
)

// ReadOnly executes fn as a read-only critical section, eliding all writes
// to the lock variable on the fast path (Figure 7). fn must not write
// shared state — the JIT analysis (internal/jit/analysis) or the
// @SoleroReadOnly annotation establishes that for compiled code; hand-
// written callers carry the same obligation.
//
// Speculative executions can observe mutually inconsistent reads; fn must
// therefore tolerate being re-executed, and any panic it raises while the
// lock word has changed is suppressed and turned into a retry (§3.3). A
// panic raised while the word is unchanged is genuine and propagates.
// Long-running fn bodies should call t.Checkpoint() in loops (compiled code
// gets these inserted at back-edges) so asynchronous validation can break
// inconsistency-induced infinite loops.
//
// After MaxElisionFailures failed speculations, the section falls back to
// real lock acquisition, which bounds starvation.
func (l *Lock) ReadOnly(t *jthread.Thread, fn func()) { l.read(t, fn, plan{}) }

// frameKind is how each execution of a section's body runs.
type frameKind uint8

const (
	// frameSpec: inside a speculative frame with a fault handler
	// (runSpeculative). With a Section in the plan the frame is
	// upgrade-aware (ReadMostly).
	frameSpec frameKind = iota
	// frameLean: no frame and no handler. Sound only for sections the
	// static analysis proved unable to fault (no indexing, division,
	// calls, or deeper-than-one-hop dereferences) and unable to loop (an
	// inconsistent snapshot cannot spin without a checkpoint to break
	// it); for those the validation is the entire protocol.
	frameLean
	// frameHeld: no speculation; the body runs holding the lock (a
	// section proven or classified writing).
	frameHeld
)

// plan is what an entry tells the elided-entry skeleton about one section.
type plan struct {
	// retries bounds failed speculations before the fallback; 0 means
	// Config.MaxElisionFailures.
	retries int
	frame   frameKind
	// s is the read-mostly record every execution runs on; nil for a
	// read-only section.
	s *Section
}

// specOutcome is how one execution of a section's body ended.
type specOutcome uint8

const (
	// specNone: no execution yet (inside runSpeculative: the body did
	// not return).
	specNone specOutcome = iota
	// specOK: the body returned; the section is validated next, or, if
	// it upgraded in place, released.
	specOK
	specFailed
	specFailedAsync
	// specRestartHolding: a read-mostly upgrade failed; BeforeWrite took
	// the lock and the body must re-execute holding it.
	specRestartHolding
)

// read is the elided-entry skeleton every read entry runs: the CS-duration
// sampling gate (sampled), the hook-free first attempt, and then the one
// elision loop (readLoop), which holds the policy gate. It reports whether the
// final execution of fn was a successful speculation — false when the
// section ultimately ran holding the lock — which is the signal the
// dynamic classification probes record.
func (l *Lock) read(t *jthread.Thread, fn func(), p plan) bool {
	if l.sampled(t) {
		return l.readLoop(t, fn, p, 0, specNone, true)
	}
	if l.hookFree && p.frame != frameHeld {
		if v := l.word.Load(); lockword.SoleroFree(v) {
			// Hook-free first attempt: with no hook wired (a registry
			// aside, which this section did not sample for), the
			// success path is the paper's fast path — load,
			// speculate, reload — plus, on a counted lock only, one
			// owned-slot increment.
			out := specOK
			if p.frame == frameLean {
				fn()
			} else {
				out = l.runSpeculative(t, v, fn, p.s)
			}
			if out == specOK && l.word.Load() == v {
				if l.metered && !l.bump(t, cElisionSuccesses) {
					l.bumpSlow(t, cElisionSuccesses)
				}
				return true
			}
			return l.readLoop(t, fn, p, v, out, false)
		}
	}
	return l.readLoop(t, fn, p, 0, specNone, false)
}

// sampled is the CS-duration sampling gate, decided once per section: a
// metered lock ticks a thread-local counter, and only the selected
// 1/period sections are timed, in the elision loop. The rest stay
// write-free and, on a hook-free lock, take the hook-free first attempt.
func (l *Lock) sampled(t *jthread.Thread) bool {
	return l.metered && t.SampleTick(l.cfg.Metrics.CSSampleMask())
}

// readLoop is the elision loop of Figure 7, shared by every entry. out is
// the outcome of an execution on snapshot v that already ran — the
// hand-off of a hook-free first attempt that did not validate at once,
// which the loop then validates, releases or counts as its own failure —
// or specNone to start by entering, through the policy gate. timed records
// the section's duration (a sampled section). It reports what read does.
func (l *Lock) readLoop(t *jthread.Thread, fn func(), p plan, v uint64, out specOutcome, timed bool) bool {
	if timed {
		start := time.Now()
		defer l.cfg.Metrics.EndCS(t.StripeIndex(), start)
	}
	holding := false
	if out == specNone {
		if p.frame == frameHeld || l.cfg.DisableElision {
			// A writing section or Unelided-SOLERO (Figure 10): the
			// full writing protocol.
			l.Lock(t)
			l.runHeld(t, fn, p.s)
			return false
		}
		v = l.word.Load()
		l.cfg.Sched.Point(t.ID(), sched.PReadEnter)
		if !lockword.SoleroFree(v) {
			v, holding = l.slowReadEnter(t)
		}
	}
	for failures := 1; ; failures++ {
		if out == specNone {
			if holding {
				// The thread holds the lock (reentrant entry or
				// fat-mode entry): run non-speculatively.
				l.cfg.History.Record(history.ReadFallback, t.ID(), l.word.Load())
				l.runHolding(t, fn, p.s)
				return false
			}
			out = specOK
			if p.frame == frameLean {
				fn()
			} else {
				out = l.runSpeculative(t, v, fn, p.s)
			}
		}
		switch {
		case out == specOK && p.s != nil && p.s.upgraded:
			// The read-mostly section wrote: release the upgraded
			// hold, publishing a fresh counter.
			l.Unlock(t)
			return false
		case out == specOK:
			l.cfg.Sched.Point(t.ID(), sched.PReadValidate)
			if l.word.Load() == v || l.slowReadExit(t, v) {
				if l.metered && !l.bump(t, cElisionSuccesses) {
					l.bumpSlow(t, cElisionSuccesses)
				}
				l.cfg.History.Record(history.ReadSuccess, t.ID(), v)
				return true
			}
		case out == specRestartHolding:
			// BeforeWrite acquired the lock after a failed upgrade;
			// re-execute holding it.
			l.inc(cFallbacks)
			l.cfg.History.Record(history.ReadFallback, t.ID(), v)
			l.runHeld(t, fn, p.s)
			return false
		}
		l.inc(cElisionFailures)
		l.cfg.History.Record(history.ReadFailure, t.ID(), v)
		l.recordAbort(t, out == specFailedAsync)
		if failures >= p.bound(l.cfg) {
			l.readFallback(t, fn, p.s, v)
			return false
		}
		v = l.word.Load()
		if !lockword.SoleroFree(v) {
			v, holding = l.slowReadEnter(t)
		}
		out = specNone
	}
}

// bound resolves the plan's retry bound.
func (p plan) bound(cfg *Config) int {
	if p.retries > 0 {
		return p.retries
	}
	return cfg.MaxElisionFailures
}

// readFallback is Figure 7's solero_slow_enter arm: after the last failed
// speculation (snapshot v), run the section holding the lock.
func (l *Lock) readFallback(t *jthread.Thread, fn func(), s *Section, v uint64) {
	l.inc(cFallbacks)
	l.cfg.Sched.Point(t.ID(), sched.PReadFallback)
	l.cfg.History.Record(history.ReadFallback, t.ID(), v)
	l.Lock(t)
	l.runHeld(t, fn, s)
}

// runHeld runs fn holding the lock the caller acquired and releases it on
// the way out; a read-mostly record s starts holding. It lives outside the
// elision loop because a defer inside a loop keeps the compiler from
// open-coding the caller's defers.
func (l *Lock) runHeld(t *jthread.Thread, fn func(), s *Section) {
	defer l.Unlock(t)
	s.hold()
	fn()
}

// runHolding executes fn while the thread holds the lock (the v == 0 case),
// releasing through slowReadExit even if fn panics — the conventional
// "release then throw" behavior of a synchronized block.
func (l *Lock) runHolding(t *jthread.Thread, fn func(), s *Section) {
	defer func() {
		if !l.slowReadExit(t, 0) {
			panic("core: failed to release a held lock at read exit")
		}
	}()
	s.hold()
	fn()
}

// ReadOnlyValue runs fn as a read-only critical section of l and returns
// its result, for lookup-style sections. fn may run more than once; only
// the final (consistent) execution's result is returned.
//
// It is read with one specialisation: its hook-free first attempt is its
// own speculative frame, so an unsampled successful lookup runs
// ReadOnlyValue → fn: no closure wrapper, no read or runSpeculative level.
// An attempt that does not validate at once hands its outcome to the
// elision loop, from the deferred handler after its recover when fn
// faulted; every other section runs the loop from the start.
func ReadOnlyValue[T any](l *Lock, t *jthread.Thread, fn func() T) (out T) {
	timed := l.sampled(t)
	v := l.word.Load()
	if timed || !l.hookFree || !lockword.SoleroFree(v) {
		l.readLoop(t, func() { out = fn() }, plan{}, 0, specNone, timed)
		return out
	}
	t.PushSpec(&l.word, v)
	ran := false
	defer func() {
		if ran {
			return
		}
		t.PopSpec()
		if r := recover(); r != nil {
			l.readLoop(t, func() { out = fn() }, plan{}, v, l.specFault(t, v, r, nil), false)
		}
	}()
	out = fn()
	ran = true
	t.PopSpec()
	if l.word.Load() == v {
		if l.metered && !l.bump(t, cElisionSuccesses) {
			l.bumpSlow(t, cElisionSuccesses)
		}
		return out
	}
	l.readLoop(t, func() { out = fn() }, plan{}, v, specOK, false)
	return out
}

// runSpeculative runs fn once on snapshot v with the speculative-read
// recovery machinery of §3.3 armed: a speculative frame for asynchronous
// checkpoint validation, and a catch-all handler that classifies any fault
// (specFault). With a read-mostly record s the frame is upgrade-aware: s
// starts speculative on v, BeforeWrite may make the frame inert, and the
// handler knows the upgrade's outcomes. The handler calls recover only when
// fn did not return: out, set by the return statement, is the flag.
func (l *Lock) runSpeculative(t *jthread.Thread, v uint64, fn func(), s *Section) (out specOutcome) {
	t.PushSpec(&l.word, v)
	if s != nil {
		s.v, s.holding = v, false
	}
	defer func() {
		t.PopSpec()
		if out == specNone {
			out = l.specFault(t, v, recover(), s)
		}
	}()
	fn()
	return specOK
}

// specFault classifies r, the value recovered from a speculative execution
// on snapshot v that did not return. An asynchronous checkpoint abort of
// this lock's speculation, or a fault raised while the word has changed
// (the reads may have been inconsistent: suppressed), means retry. A fault
// raised while the word is unchanged is genuine — the analogue of a runtime
// exception escaping the synchronized block — and an abort aimed at an
// enclosing section belongs to that section's handler: both are rethrown.
// A nil r (runtime.Goexit) is left to unwind.
//
// A read-mostly record s adds two cases: the failed-upgrade unwind
// (specRestartHolding), and a fault raised while holding, which is genuine
// (the reads are consistent once holding): the lock is released before it
// propagates. An upgraded section's speculation already ended in its
// counted upgrade, so only a section holding without one counts the fault.
func (l *Lock) specFault(t *jthread.Thread, v uint64, r any, s *Section) specOutcome {
	if r == nil {
		return specFailed
	}
	if s != nil {
		if r == errUpgradeRestart {
			return specRestartHolding
		}
		if s.holding {
			if !s.upgraded {
				l.inc(cGenuineFaults)
			}
			l.Unlock(t)
			panic(r)
		}
	}
	if ire, isIRE := r.(*jthread.InconsistentReadError); isIRE {
		if ire.Word != &l.word {
			panic(r)
		}
		l.inc(cAsyncAborts)
		return specFailedAsync
	}
	if l.word.Load() != v {
		l.inc(cSuppressedFaults)
		return specFailed
	}
	l.inc(cGenuineFaults)
	panic(r)
}
