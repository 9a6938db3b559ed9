package core

// Metrics hooks. The registry (internal/metrics) rides the protocol's slow
// paths only: abort classification happens where a speculation has already
// failed (the elision loop's failure arm, which a failed hook-free first
// attempt hands its outcome to), dwell timers wrap code that is already
// spinning, yielding, or parking, and the sole fast-path touch — the
// critical-section duration sampling gate of the elided-entry skeleton
// (read) — is a thread-local counter behind a byte test. A production
// config (Metrics == nil) pays one predictable branch; a metered lock's
// read section ticks the counter once, and unless it is selected it takes
// the same hook-free first attempt as an unmetered lock, plus the
// owned-slot count a registry turns on (stats.go), so the read fast path
// writes no shared line either way.

import (
	"runtime"
	"time"

	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/metrics"
)

// abortCauseFor classifies a failed or preempted elision by the lock word
// observed at the failure: a fat word means elision was impossible, a held
// (or contended) word means a writer was mid-flight, and a free-but-changed
// word means a whole writing section raced past the speculation.
func abortCauseFor(w uint64) metrics.AbortCause {
	switch {
	case lockword.Inflated(w):
		return metrics.AbortInflated
	case lockword.SoleroHeld(w) || lockword.FLC(w):
		return metrics.AbortLockBitSet
	default:
		return metrics.AbortWriterRaced
	}
}

// recordAbort accounts exactly one failed speculative execution, classified
// either as an asynchronous checkpoint abort or by the current lock word.
func (l *Lock) recordAbort(t *jthread.Thread, async bool) {
	m := l.cfg.Metrics
	if m == nil {
		return
	}
	if async {
		m.RecordAbort(t.StripeIndex(), metrics.AbortAsync)
		return
	}
	m.RecordAbort(t.StripeIndex(), abortCauseFor(l.word.Load()))
}

// yieldTimed is the tier-3 yield with its dwell recorded.
func (l *Lock) yieldTimed(t *jthread.Thread) {
	m := l.cfg.Metrics
	if m == nil {
		runtime.Gosched()
		return
	}
	start := time.Now()
	runtime.Gosched()
	m.Yield.Record(t.StripeIndex(), time.Since(start).Nanoseconds())
}

// spinDwell closes a spin episode opened at start (zero when the registry
// was nil at episode entry).
func (l *Lock) spinDwell(t *jthread.Thread, start time.Time) {
	if m := l.cfg.Metrics; m != nil && !start.IsZero() {
		m.Spin.Record(t.StripeIndex(), time.Since(start).Nanoseconds())
	}
}
