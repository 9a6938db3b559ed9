// Package solero is the public API of the SOLERO reproduction: lock
// implementations for read-mostly workloads, a VM-style thread registry,
// and re-exports of the baselines the paper compares against.
//
// SOLERO (Software Optimistic Lock Elision for Read-Only critical sections,
// Nakaike & Michael, PLDI 2010) is a sequence-lock-based replacement for a
// Java monitor: writing critical sections acquire the lock with a CAS and
// publish a fresh counter on release; read-only critical sections run
// speculatively and merely validate that the lock word never changed,
// writing nothing — no atomic operations, no cache-line invalidations.
//
// # Quick start
//
//	vm := solero.NewVM()
//	t := vm.Attach("worker")         // one handle per goroutine
//	lock := solero.NewLock(nil)
//
//	lock.Sync(t, func() { shared.Put(k, v) })          // writing section
//	v := solero.ReadOnly(lock, t, func() V {           // elided section
//		v, _ := shared.Get(k)
//		return v
//	})
//
// Read-only sections may be re-executed and may observe torn intermediate
// state that the validation protocol then discards; they must be free of
// side effects, exactly like a synchronized block the paper's JIT proves
// read-only. Store shared fields read inside elided sections in sync/atomic
// cells (see internal/collections for the pattern) so the racing loads stay
// within the Go memory model.
//
// For sections that occasionally write, use (*Lock).ReadMostly and call
// (*Section).BeforeWrite before the first write (§5 of the paper).
package solero

import (
	"repro/internal/core"
	"repro/internal/jthread"
	"repro/internal/rwlock"
	"repro/internal/seqlock"
	"repro/internal/vmlock"
)

// VM is the runtime context threads attach to; it also drives the
// asynchronous validation events that break inconsistency-induced loops.
type VM = jthread.VM

// Thread is a VM-attached execution context. Attach one per goroutine and
// pass it to every lock operation.
type Thread = jthread.Thread

// NewVM creates a runtime context.
func NewVM() *VM { return jthread.NewVM() }

// Lock is the SOLERO lock: full Java-monitor semantics (reentrancy,
// bi-modal inflation, contention tiers) with lock-word writes elided for
// read-only critical sections.
type Lock = core.Lock

// Config tunes a Lock; see core.Config for the fields.
type Config = core.Config

// Section is the write-announcement handle of a read-mostly section.
type Section = core.Section

// Stats is a Lock's event-counter views: 19 one-byte views in the lock's
// cold block, whose counts live in that block and, for a counted lock, the
// counting threads' counter pages. The lock itself is 32 B and holds none
// of them, so lock.Stats() rents the cold block (about 200 B) on a lock
// that has none yet. Read a counter in place,
// lock.Stats().Inflations.Load(): a Counter view must not be copied. A
// total is exact once the counting threads are quiescent.
//
// Only a counted lock (Stats.Counted: one built with Config.Metrics set,
// as CountedConfig does) keeps FastAcquires, ElisionSuccesses and
// ElisionAttempts; on the default, uncounted lock they are absent, so an
// elided read writes nothing at all. Every other counter is exact on every
// lock.
type Stats = core.Stats

// NewLock creates a SOLERO lock (nil cfg for defaults).
func NewLock(cfg *Config) *Lock { return core.New(cfg) }

// CountedConfig returns a copy of cfg (nil for defaults) whose locks are
// counted; see core.CountedConfig.
func CountedConfig(cfg *Config) *Config { return core.CountedConfig(cfg) }

// ReadOnly runs fn as an elided read-only critical section of l and returns
// its value. fn may run multiple times; only a validated execution's result
// is returned.
func ReadOnly[T any](l *Lock, t *Thread, fn func() T) T {
	return core.ReadOnlyValue(l, t, fn)
}

// Monitor (conventional) and RW baselines, for comparison and migration.
type (
	// MonitorLock is the conventional tasuki lock (the paper's "Lock").
	MonitorLock = vmlock.Lock
	// MonitorConfig tunes a MonitorLock.
	MonitorConfig = vmlock.Config
	// RWLock is the reentrant read-write lock (the paper's "RWLock").
	RWLock = rwlock.RWLock
	// SeqLock is the classic Linux-style sequential lock (§2.2).
	SeqLock = seqlock.SeqLock
)

// NewMonitorLock creates a conventional lock (nil cfg for defaults).
func NewMonitorLock(cfg *MonitorConfig) *MonitorLock { return vmlock.New(cfg) }
