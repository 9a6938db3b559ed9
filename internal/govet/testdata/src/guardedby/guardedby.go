// Package guardedby is golden testdata for the guardedby lockset
// analyzer: a consistently guarded counter (silent), an unguarded read
// and write against a lock-guarded field, a guard-confusion pair, a
// write performed under a read-only hold, a guard-confusion pair read
// through the solero.ReadOnly value form, declared-guard enforcement,
// and the //solerovet:ignore escape hatch.
package guardedby

import (
	"repro/internal/core"
	"repro/internal/jthread"
	"repro/solero"
)

// counter is the clean shape: every access to n holds mu — writes under
// Sync, reads under ReadOnly. The intersection is {mu}; nothing to say.
type counter struct {
	mu *core.Lock
	n  int64
}

func (c *counter) inc(t *jthread.Thread) {
	c.mu.Sync(t, func() {
		c.n++
	})
}

func (c *counter) get(t *jthread.Thread) int64 {
	var out int64
	c.mu.ReadOnly(t, func() {
		out = c.n
	})
	return out
}

// newCounter writes fields of a freshly allocated local: construction,
// not sharing — no guard obligation.
func newCounter() *counter {
	c := &counter{mu: core.New(nil)}
	c.n = 0
	return c
}

// hist guards total with mu in the hot path, but snapshot and reset
// touch it bare — the classic lockset race.
type hist struct {
	mu    *core.Lock
	total int64
}

func (h *hist) add(t *jthread.Thread, v int64) {
	h.mu.Sync(t, func() {
		h.total += v
	})
}

func (h *hist) snapshot() int64 {
	return h.total // want `unguarded shared access: hist\.total is read with no lock held, but is guarded by hist\.mu at guardedby\.go:\d+`
}

func (h *hist) reset() {
	h.total = 0 // want `unguarded shared access: hist\.total is written with no lock held, but is guarded by hist\.mu at guardedby\.go:\d+`
}

// twin reads gauge under a but writes it under b: the locked sites
// themselves disagree — no common lock protects every access.
type twin struct {
	a, b  *core.Lock
	gauge int64
}

func (w *twin) observe(t *jthread.Thread) int64 {
	var out int64
	w.a.Sync(t, func() {
		out = w.gauge
	})
	return out
}

func (w *twin) bump(t *jthread.Thread) {
	w.b.Sync(t, func() {
		w.gauge++ // want `guard confusion: twin\.gauge is accessed under twin\.b here but under twin\.a at guardedby\.go:\d+; no common lock guards every access`
	})
}

// cache holds mu at every site, but the ReadOnly section stores into
// hits while the lock is held only for speculative reading: the
// check-then-act shape speculation cannot make atomic.
type cache struct {
	mu   *core.Lock
	hits int64
}

func (c *cache) touch(t *jthread.Thread) {
	c.mu.Sync(t, func() {
		c.hits++
	})
}

func (c *cache) peek(t *jthread.Thread) int64 {
	var out int64
	c.mu.ReadOnly(t, func() {
		out = c.hits
		c.hits++ // want `cache\.hits is written while its guard cache\.mu is held only for speculative reads`
	})
	return out
}

// depth reads level through the public value form under a, but writes
// it under b: the elided read holds a for speculative reading, so the
// locked sites disagree just as twin's do.
type depth struct {
	a, b  *solero.Lock
	level int64
}

func (d *depth) read(t *jthread.Thread) int64 {
	return solero.ReadOnly(d.a, t, func() int64 { return d.level })
}

func (d *depth) raise(t *jthread.Thread) {
	d.b.Sync(t, func() {
		d.level++ // want `guard confusion: depth\.level is accessed under depth\.b here but under depth\.a at guardedby\.go:\d+; no common lock guards every access`
	})
}

// ledger declares its guard explicitly: the directive is enforced, not
// inferred, so even a lone bare read is a finding.
type ledger struct {
	mu *core.Lock
	//solerovet:guardedby(mu)
	balance int64
}

func (l *ledger) deposit(t *jthread.Thread, v int64) {
	l.mu.Sync(t, func() {
		l.balance += v
	})
}

func (l *ledger) leak() int64 {
	return l.balance // want `ledger\.balance is declared //solerovet:guardedby\(mu\) but the guard is not held at this read`
}

// stats is the suppressed copy of the hist shape: the same unguarded
// read, silenced with //solerovet:ignore (no want — the driver drops it
// before reporting).
type stats struct {
	mu  *core.Lock
	ops int64
}

func (s *stats) work(t *jthread.Thread) {
	s.mu.Sync(t, func() {
		s.ops++
	})
}

func (s *stats) dump() int64 {
	//solerovet:ignore
	return s.ops
}
