package backend

import (
	"repro/internal/core"
	"repro/internal/jthread"
	"repro/internal/montable"
	"repro/internal/rwlock"
	"repro/internal/vmlock"
)

// ForVMLock wraps an existing conventional lock in the SPI. tb is the
// monitor table the lock rents from: its counters join the backend's
// Stats and it is the MonitorTable sweep harnesses drive. Pass nil for a
// lock on montable.Shared, whose counters belong to no one lock.
func ForVMLock(l *vmlock.Lock, tb *montable.Table) Backend {
	return &vmlockBackend{l: l, tb: tb}
}

// ForRWLock wraps an existing reader-writer baseline in the SPI.
func ForRWLock(l *rwlock.RWLock) Backend { return &rwlockBackend{l: l} }

// ForSolero wraps an existing SOLERO lock in the SPI; tb is as for
// ForVMLock.
func ForSolero(l *core.Lock, tb *montable.Table) Backend {
	return &soleroBackend{l: l, tb: tb}
}

// vmlockBackend adapts the conventional tasuki lock. It has no read mode:
// read acquisitions are exclusive acquisitions. tb is the lock's own
// monitor table (nil for a lock on montable.Shared).
type vmlockBackend struct {
	l  *vmlock.Lock
	tb *montable.Table
}

func (b *vmlockBackend) Name() string                           { return "vmlock" }
func (b *vmlockBackend) Lock(t *jthread.Thread)                 { b.l.Lock(t) }
func (b *vmlockBackend) Unlock(t *jthread.Thread)               { b.l.Unlock(t) }
func (b *vmlockBackend) ReadSync(t *jthread.Thread, fn func())  { b.l.Sync(t, fn) }
func (b *vmlockBackend) WriteSync(t *jthread.Thread, fn func()) { b.l.Sync(t, fn) }
func (b *vmlockBackend) Stats() map[string]uint64 {
	s := b.l.Stats().Snapshot()
	if b.tb != nil {
		for k, v := range b.tb.Snapshot().Map() {
			s[k] = v
		}
	}
	return s
}

// MonitorTable returns the lock's own monitor table (nil for a lock on
// montable.Shared).
func (b *vmlockBackend) MonitorTable() *montable.Table { return b.tb }

// rwlockBackend adapts the j.u.c.-style reader-writer baseline.
type rwlockBackend struct{ l *rwlock.RWLock }

func (b *rwlockBackend) Name() string                           { return "rwlock" }
func (b *rwlockBackend) Lock(t *jthread.Thread)                 { b.l.Lock(t) }
func (b *rwlockBackend) Unlock(t *jthread.Thread)               { b.l.Unlock(t) }
func (b *rwlockBackend) ReadSync(t *jthread.Thread, fn func())  { b.l.ReadSync(t, fn) }
func (b *rwlockBackend) WriteSync(t *jthread.Thread, fn func()) { b.l.WriteSync(t, fn) }
func (b *rwlockBackend) Stats() map[string]uint64               { return b.l.Stats() }

// soleroBackend adapts the SOLERO elision lock. Its read fast path is
// closure-scoped speculation — the runtime must own the section body to
// retry it — so ReadSync is the elided path.
type soleroBackend struct {
	l  *core.Lock
	tb *montable.Table
}

func (b *soleroBackend) Name() string                           { return "solero" }
func (b *soleroBackend) Lock(t *jthread.Thread)                 { b.l.Lock(t) }
func (b *soleroBackend) Unlock(t *jthread.Thread)               { b.l.Unlock(t) }
func (b *soleroBackend) ReadSync(t *jthread.Thread, fn func())  { b.l.ReadOnly(t, fn) }
func (b *soleroBackend) WriteSync(t *jthread.Thread, fn func()) { b.l.Sync(t, fn) }
func (b *soleroBackend) Stats() map[string]uint64 {
	s := b.l.Stats().Snapshot()
	if b.tb != nil {
		for k, v := range b.tb.Snapshot().Map() {
			s[k] = v
		}
	}
	return s
}

// MonitorTable returns the lock's own monitor table (nil for a lock on
// montable.Shared).
func (b *soleroBackend) MonitorTable() *montable.Table { return b.tb }

func (b *soleroBackend) ReadMostly(t *jthread.Thread, fn func(u Upgrader)) {
	b.l.ReadMostly(t, func(sec *core.Section) { fn(sec) })
}
