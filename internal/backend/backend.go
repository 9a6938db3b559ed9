// Package backend is the lock-algorithm SPI: one interface that the
// paper's conventional lock (internal/vmlock), its RWLock baseline
// (internal/rwlock), and the SOLERO elision lock (internal/core) all
// implement, so the schedule-kernel oracle (schedcheck, `solerocheck
// -sched -backend`) and the counter CLI (`lockstats -backend`) run every
// contender unchanged.
//
// The surface is the least common denominator of the three algorithms:
// exclusive Lock/Unlock, the closure forms ReadSync/WriteSync, and a flat
// Stats snapshot. A backend without a real read mode (vmlock) serves
// ReadSync from the exclusive path; SOLERO's ReadSync is the elided path
// (its elision needs the section body to retry it). Backends supporting an
// in-place read-to-write upgrade additionally implement ReadMostlyBackend.
package backend

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/metrics"
	"repro/internal/montable"
	"repro/internal/rwlock"
	"repro/internal/sched"
	"repro/internal/vmlock"
)

// Backend is one lock algorithm behind a uniform surface.
type Backend interface {
	// Name returns the registry name ("vmlock", "rwlock", "solero").
	Name() string
	// Lock/Unlock acquire and release in exclusive (write) mode.
	Lock(t *jthread.Thread)
	Unlock(t *jthread.Thread)
	// ReadSync runs fn in read mode. For SOLERO this is the elided path —
	// fn may be executed speculatively and retried, so it must be
	// read-only and idempotent.
	ReadSync(t *jthread.Thread, fn func())
	// WriteSync runs fn in exclusive mode.
	WriteSync(t *jthread.Thread, fn func())
	// Stats returns a flat counter snapshot for the exporters.
	Stats() map[string]uint64
}

// Upgrader is the handle a ReadMostly section body uses to transition to
// writing; *core.Section satisfies it.
type Upgrader interface {
	// BeforeWrite must be called before the section's first write.
	BeforeWrite()
	// Upgraded reports whether the section upgraded in place (true) or
	// restarted under the real lock (false).
	Upgraded() bool
}

// ReadMostlyBackend is implemented by backends with an in-place
// read-to-write upgrade (SOLERO's read-mostly sections).
type ReadMostlyBackend interface {
	Backend
	// ReadMostly runs fn as an upgradable read section; fn may run
	// speculatively and be restarted, and must call u.BeforeWrite before
	// its first write.
	ReadMostly(t *jthread.Thread, fn func(u Upgrader))
}

// TableBacked is implemented by backends whose fat mode rents monitors
// from a compact monitor table (vmlock and solero). Harnesses use the
// accessor to drive explicit sweeps and read occupancy.
type TableBacked interface {
	Backend
	MonitorTable() *montable.Table
}

// Options configures backend construction. The zero value builds
// production-tuned backends with no instrumentation. Every backend runs
// natively: no option charges simulated fence costs.
type Options struct {
	// Sched wires the backend's schedule points and parking regions into
	// the schedule-injection kernel.
	Sched *sched.Hooks
	// History receives protocol events (consumed by the SOLERO backend;
	// the others are oracle-checked purely from harness-recorded events).
	History *history.Recorder
	// Metrics, when set, is shared by every layer of the built backend:
	// slow-path dwell histograms, the abort/contention taxonomy, and
	// sampled site attribution all land in this one registry, so the
	// exporters read any backend uniformly. Nil (production default) keeps
	// every hook to one predictable branch.
	Metrics *metrics.Registry
	// Solero, when set, is the base core.Config for the "solero" backend
	// (Sched/History/Bug above and the backend's own monitor table are
	// layered on top of a copy).
	Solero *core.Config
	// VMLock, when set, is the base vmlock.Config for the "vmlock"
	// backend (Sched and the backend's own monitor table layered on top of
	// a copy).
	VMLock *vmlock.Config
	// Montable, when set, tunes the compact monitor table each vmlock or
	// solero backend builds for itself (Sched/History/Metrics layered on
	// top of a copy).
	Montable *montable.Config
	// Bug injects a protocol defect into the SOLERO backend under test.
	Bug core.Bug
}

// table builds the compact monitor table a vmlock or solero backend rents
// its fat monitors from.
func (o Options) table() *montable.Table {
	var cfg montable.Config
	if o.Montable != nil {
		cfg = *o.Montable
	}
	cfg.Sched, cfg.History = o.Sched, o.History
	cfg.Metrics = o.Metrics
	return montable.New(cfg)
}

// Names lists the registered backends in the order every harness sweeps
// them (`make backend-smoke`).
func Names() []string {
	return []string{"vmlock", "rwlock", "solero"}
}

// New builds the named backend.
func New(name string, o Options) (Backend, error) {
	switch name {
	case "vmlock":
		var cfg vmlock.Config
		if o.VMLock != nil {
			cfg = *o.VMLock
		} else {
			cfg = *vmlock.DefaultConfig
		}
		cfg.Sched = o.Sched
		cfg.Metrics = o.Metrics
		cfg.Monitors = o.table()
		return ForVMLock(vmlock.New(&cfg), cfg.Monitors), nil
	case "rwlock":
		return &rwlockBackend{l: &rwlock.RWLock{Sched: o.Sched, Metrics: o.Metrics}}, nil
	case "solero":
		var cfg core.Config
		if o.Solero != nil {
			cfg = *o.Solero
		} else {
			cfg = *core.DefaultConfig
		}
		cfg.Sched, cfg.History, cfg.Bug = o.Sched, o.History, o.Bug
		if o.Metrics != nil {
			cfg.Metrics = o.Metrics
		}
		cfg.Monitors = o.table()
		return ForSolero(core.New(&cfg), cfg.Monitors), nil
	}
	return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
}
