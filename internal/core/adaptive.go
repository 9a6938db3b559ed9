package core

import (
	"sync/atomic"

	"repro/internal/jthread"
)

// Adaptive elision — an extension in the spirit of the paper's remark that
// the single-failure fallback "can be expanded" (§3.2): instead of only
// reacting per execution, the lock tracks its recent speculation failure
// ratio and, when a sampling window shows elision mostly failing (a
// write-heavy phase), routes read-only sections through the plain lock for
// a backoff period before re-probing. This bounds the cost of the
// pathological regime Figure 15 exposes at high thread counts, where
// failed speculations and their fallback acquisitions feed each other.
//
// The window bookkeeping runs on the elided fast path, so — like the stat
// counters — it is sharded: each stats stripe carries its own
// attempts/failures window (statStripe.adAttempts/adFailures), updated
// without touching shared cache lines. Only the *trip* decision, a rare
// event at window boundaries, writes the shared backoff gate. Each stripe
// evaluates its own AdaptiveWindow-sized window against
// AdaptiveFailurePct, so with S active stripes the lock observes between
// window and S*window executions before a write-heavy phase trips —
// per-stripe semantics are exactly the seed's, and single-threaded
// behavior is bit-identical.

// adaptiveState is the shared remainder of the machinery, embedded in
// Lock: the backoff gate. It is read on every adaptive read section (a
// load of a shared-state line, which readers cache) but written only when
// a window trips or a backoff credit is consumed — both on the unelided
// path.
type adaptiveState struct {
	backoffLeft atomic.Int32 // unelided read sections remaining
}

// adaptiveDefaults.
const (
	defaultAdaptiveWindow     = 256
	defaultAdaptiveFailurePct = 50
	defaultAdaptiveBackoffOps = 2048
)

// adaptiveParams resolves configured knobs.
func (c *Config) adaptiveParams() (window, pct uint32, backoff int32) {
	window = c.AdaptiveWindow
	if window == 0 {
		window = defaultAdaptiveWindow
	}
	pct = c.AdaptiveFailurePct
	if pct == 0 {
		pct = defaultAdaptiveFailurePct
	}
	backoff = c.AdaptiveBackoffOps
	if backoff == 0 {
		backoff = defaultAdaptiveBackoffOps
	}
	return
}

// adaptiveSkip reports whether this read-only section should skip
// speculation (backoff active) and consumes one backoff credit.
func (l *Lock) adaptiveSkip() bool {
	if !l.cfg.Adaptive {
		return false
	}
	for {
		left := l.ad.backoffLeft.Load()
		if left <= 0 {
			return false
		}
		if l.ad.backoffLeft.CompareAndSwap(left, left-1) {
			l.st.incShared(cAdaptiveSkips)
			return true
		}
	}
}

// adaptiveRecord accounts one speculative execution outcome in the calling
// thread's stripe and trips the shared backoff gate when the stripe's
// window completes with a failure ratio at or above the threshold.
func (l *Lock) adaptiveRecord(t *jthread.Thread, failed bool) {
	if !l.cfg.Adaptive {
		return
	}
	sp := l.st.stripeFor(t)
	if failed {
		sp.adFailures.Add(1)
	}
	window, pct, backoff := l.cfg.adaptiveParams()
	if sp.adAttempts.Add(1) < window {
		return
	}
	// Stripe window complete: evaluate and reset. Racing evaluators on a
	// shared stripe may both reset; harmless.
	fails := sp.adFailures.Load()
	sp.adAttempts.Store(0)
	sp.adFailures.Store(0)
	if fails*100 >= window*pct {
		l.ad.backoffLeft.Store(backoff)
		l.st.incShared(cAdaptiveTrips)
	}
}
