package core

import (
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/sched"
	"repro/internal/trace"
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
func (l *Lock) ReadOnly(t *jthread.Thread, fn func()) {
	// Sampled CS-duration timing, decided once per section: a metered
	// lock ticks a thread-local counter, and only the selected 1/period
	// sections leave for the timed path. The rest stay write-free and,
	// on a hook-free lock, take the hook-free first attempt.
	if l.metered && t.SampleTick(l.cfg.Metrics.CSSampleMask()) {
		l.readTimed(t, fn)
		return
	}
	if l.hookFree {
		if v := l.word.Load(); lockword.SoleroFree(v) {
			// Hook-free first attempt: with no hook wired (a registry
			// aside, which this section did not sample for) and adaptive
			// elision off, the success path is the paper's fast path —
			// load, speculate, reload — plus one owned-slot increment.
			ok, async := l.runSpeculative(t, v, fn)
			if ok && (l.word.Load() == v || l.slowReadExit(t, v)) {
				l.bump(t, cElisionSuccesses)
				return
			}
			l.readRetry(t, fn, v, async)
			return
		}
	}
	l.readUntimed(t, fn)
}

// readTimed runs a section the CS-duration sampler selected: the elision
// loop, timed, with its duration recorded in the registry.
func (l *Lock) readTimed(t *jthread.Thread, fn func()) {
	m := l.cfg.Metrics
	start := time.Now()
	defer m.EndCS(t.StripeIndex(), start)
	l.readUntimed(t, fn)
}

// readUntimed runs a section through the elision loop, or, under
// Unelided-SOLERO (Figure 10) or an adaptive backoff window, through the
// full writing protocol.
func (l *Lock) readUntimed(t *jthread.Thread, fn func()) {
	if l.cfg.DisableElision || l.adaptiveSkip() {
		l.Sync(t, fn)
		return
	}
	l.readOnlyImpl(t, fn, l.cfg.MaxElisionFailures, false)
}

// readOnlyImpl is the elision loop of Figure 7 shared by ReadOnly and the
// proof-carrying ReadOnlySection. maxFailures bounds failed speculations
// before the real-acquisition fallback; lean selects the recovery-free
// speculation path (no speculative frame, no panic handler) that statically
// proven fault-free sections may use. It reports whether the *final*
// execution of fn was a successful speculation — false when the section
// ultimately ran holding the lock (reentrant entry, fat-mode entry, or
// fallback), which is the signal the dynamic classification probes record.
func (l *Lock) readOnlyImpl(t *jthread.Thread, fn func(), maxFailures int, lean bool) bool {
	v := l.word.Load()
	l.cfg.Sched.Point(t.ID(), sched.PReadEnter)
	holding := false
	if !lockword.SoleroFree(v) {
		v, holding = l.slowReadEnter(t)
	}
	failures := 0
	for {
		if holding {
			// The thread holds the lock (reentrant entry or
			// fat-mode entry): run non-speculatively.
			l.cfg.History.Record(history.ReadFallback, t.ID(), l.word.Load())
			l.runHolding(t, fn)
			return false
		}
		ok, async := true, false
		if lean {
			// Recovery-free: no speculative frame (asynchronous
			// checkpoints cannot abort it) and no panic handler.
			// Sound only for sections the static analysis proved
			// unable to fault (no indexing, division, calls, or
			// deeper-than-one-hop dereferences) and unable to loop
			// (an inconsistent snapshot cannot spin without a
			// checkpoint to break it); for those the validation
			// below is the entire protocol.
			fn()
		} else {
			ok, async = l.runSpeculative(t, v, fn)
		}
		if ok {
			l.cfg.Sched.Point(t.ID(), sched.PReadValidate)
			if l.word.Load() == v || l.slowReadExit(t, v) {
				l.bump(t, cElisionSuccesses)
				l.cfg.Tracer.Record(trace.EvElideSuccess, t.ID(), v)
				l.cfg.History.Record(history.ReadSuccess, t.ID(), v)
				l.adaptiveRecord(false)
				return true
			}
		}
		l.inc(cElisionFailures)
		l.cfg.Tracer.Record(trace.EvElideFailure, t.ID(), v)
		l.recordAbort(t, async)
		l.adaptiveRecord(true)
		failures++
		if failures >= maxFailures {
			l.readFallback(t, fn, v)
			return false
		}
		v = l.word.Load()
		if !lockword.SoleroFree(v) {
			v, holding = l.slowReadEnter(t)
		}
	}
}

// readRetry takes a section whose hook-free first attempt on snapshot v
// failed: it counts and classifies the failure (async as runSpeculative or
// specFault reported it) and hands the section to the elision loop with
// that failure spent, or straight to the fallback when it was the last one
// allowed.
func (l *Lock) readRetry(t *jthread.Thread, fn func(), v uint64, async bool) {
	l.inc(cElisionFailures)
	l.recordAbort(t, async)
	if n := l.cfg.MaxElisionFailures; n > 1 {
		l.readOnlyImpl(t, fn, n-1, false)
	} else {
		l.readFallback(t, fn, v)
	}
}

// readFallback is Figure 7's solero_slow_enter arm: after the last failed
// speculation (snapshot v), run the section holding the lock. It lives
// outside the retry loop because a defer inside a loop keeps the compiler
// from open-coding the caller's defers.
func (l *Lock) readFallback(t *jthread.Thread, fn func(), v uint64) {
	l.inc(cFallbacks)
	l.cfg.Tracer.Record(trace.EvFallback, t.ID(), v)
	l.cfg.Sched.Point(t.ID(), sched.PReadFallback)
	l.cfg.History.Record(history.ReadFallback, t.ID(), v)
	l.Sync(t, fn)
}

// ReadOnlyValue runs fn as a read-only critical section of l and returns
// its result, for lookup-style sections. fn may run more than once; only
// the final (consistent) execution's result is returned.
//
// It samples like ReadOnly. Its hook-free first attempt is its own
// speculative frame, so an unsampled successful lookup runs ReadOnlyValue
// → fn: no closure wrapper, no (*Lock).ReadOnly or runSpeculative level.
// A fault in that attempt is classified and the section retried from the
// deferred handler, after its recover; every other case takes ReadOnly's
// paths.
func ReadOnlyValue[T any](l *Lock, t *jthread.Thread, fn func() T) (out T) {
	if l.metered && t.SampleTick(l.cfg.Metrics.CSSampleMask()) {
		l.readTimed(t, func() { out = fn() })
		return out
	}
	v := l.word.Load()
	if !l.hookFree || !lockword.SoleroFree(v) {
		l.readUntimed(t, func() { out = fn() })
		return out
	}
	t.PushSpec(&l.word, v)
	ran := false
	defer func() {
		if ran {
			return
		}
		t.PopSpec()
		r := recover()
		if r == nil {
			return // runtime.Goexit: let it unwind
		}
		async := l.specFault(t, v, r)
		l.readRetry(t, func() { out = fn() }, v, async)
	}()
	out = fn()
	ran = true
	t.PopSpec()
	if l.word.Load() == v || l.slowReadExit(t, v) {
		l.bump(t, cElisionSuccesses)
		return out
	}
	l.readRetry(t, func() { out = fn() }, v, false)
	return out
}

// runHolding executes fn while the thread holds the lock (the v == 0 case),
// releasing through slowReadExit even if fn panics — the conventional
// "release then throw" behavior of a synchronized block.
func (l *Lock) runHolding(t *jthread.Thread, fn func()) {
	defer func() {
		if !l.slowReadExit(t, 0) {
			panic("core: failed to release a held lock at read exit")
		}
	}()
	fn()
}

// runSpeculative runs fn with the speculative-read recovery machinery of
// §3.3 armed: a speculative frame for asynchronous checkpoint validation,
// and a catch-all handler that classifies any fault (specFault). It returns
// ok == false when the section must be retried; async distinguishes an
// asynchronous checkpoint abort from a word-change fault (the
// abort-taxonomy split the failure arm records). The handler calls
// recover only when fn did not return: ok, set by the return statement,
// is the flag.
func (l *Lock) runSpeculative(t *jthread.Thread, v uint64, fn func()) (ok, async bool) {
	t.PushSpec(&l.word, v)
	defer func() {
		t.PopSpec()
		if !ok {
			async = l.specFault(t, v, recover())
		}
	}()
	fn()
	return true, false
}

// specFault classifies r, the value recovered from a speculative execution
// on snapshot v that did not return, and reports whether it was an
// asynchronous checkpoint abort of this lock's speculation. An abort, or a
// fault raised while the word has changed (the reads may have been
// inconsistent: suppressed), means retry. A fault raised while the word is
// unchanged is genuine — the analogue of a runtime exception escaping the
// synchronized block — and an abort aimed at an enclosing section belongs
// to that section's handler: both are rethrown. A nil r (runtime.Goexit)
// is left to unwind.
func (l *Lock) specFault(t *jthread.Thread, v uint64, r any) (async bool) {
	if r == nil {
		return false
	}
	if ire, isIRE := r.(*jthread.InconsistentReadError); isIRE {
		if ire.Word != &l.word {
			panic(r)
		}
		l.inc(cAsyncAborts)
		return true
	}
	if l.word.Load() != v {
		l.inc(cSuppressedFaults)
		return false
	}
	l.inc(cGenuineFaults)
	panic(r)
}
