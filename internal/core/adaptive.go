package core

// Adaptive elision — an extension in the spirit of the paper's remark that
// the single-failure fallback "can be expanded" (§3.2): instead of only
// reacting per execution, the lock tracks its recent speculation failure
// ratio and, when a sampling window shows elision mostly failing (a
// write-heavy phase), routes elided sections through the plain lock for
// a backoff period before re-probing. This bounds the cost of the
// pathological regime Figure 15 exposes at high thread counts, where
// failed speculations and their fallback acquisitions feed each other.
//
// The window and the backoff gate live in the lock's cold block, which an
// Adaptive lock rents at its first speculation: the window counts every
// speculative execution with an atomic add, so an Adaptive lock's readers
// write one shared line — the price of a per-lock failure ratio. Locks
// without Adaptive never touch either. The window is the lock's: the first
// AdaptiveWindow executions, from whatever threads, are evaluated against
// AdaptiveFailurePct together. Single-threaded behaviour is the seed's.

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

// adaptiveSkip reports whether this elided section should skip
// speculation (backoff active) and consumes one backoff credit.
func (l *Lock) adaptiveSkip() bool {
	if !l.cfg.Adaptive {
		return false
	}
	c := l.cold.Load()
	if c == nil {
		return false
	}
	for {
		left := c.backoffLeft.Load()
		if left <= 0 {
			return false
		}
		if c.backoffLeft.CompareAndSwap(left, left-1) {
			c.c[cAdaptiveSkips].Add(1)
			return true
		}
	}
}

// adaptiveRecord accounts one speculative execution outcome in the lock's
// window and trips the backoff gate when the window completes with a
// failure ratio at or above the threshold.
func (l *Lock) adaptiveRecord(failed bool) {
	if !l.cfg.Adaptive {
		return
	}
	c := l.coldBlock()
	if failed {
		c.adFailures.Add(1)
	}
	window, pct, backoff := l.cfg.adaptiveParams()
	if c.adAttempts.Add(1) < window {
		return
	}
	// Window complete: evaluate and reset. Racing evaluators may both
	// reset; harmless.
	fails := c.adFailures.Load()
	c.adAttempts.Store(0)
	c.adFailures.Store(0)
	if fails*100 >= window*pct {
		c.backoffLeft.Store(backoff)
		c.c[cAdaptiveTrips].Add(1)
	}
}
