// Package montable is the compact monitor table: a sharded, striped store
// of monitor state that bi-modal locks consult on inflation instead of
// allocating a *monitor.Monitor per lock. The lockword's fat pointer
// becomes a *table ticket* (see lockword's ticket encoding: arena index +
// shard + binding generation in the 56-bit field), and an aggressive
// deflation policy — an idle-epoch sweeper plus on-release no-waiter
// reclamation — returns entries to a per-shard free list, so the
// steady-state monitor count tracks *contended* locks rather than
// ever-inflated locks. At the ROADMAP's millions-of-sessions scale this is
// the difference between one word per lock and hundreds of bytes per lock
// (see Compact Java Monitors in PAPERS.md).
//
// # Binding lifecycle
//
// A table entry is *bound* to a lock from the moment an inflating thread
// claims it (Bind) until the table reclaims it. While bound, the lock's
// inflated word is the entry's ticket word — lockword.TicketWord(shard,
// index, gen) — and every thread that observes that word resolves it back
// to the entry with PinWord. Reclamation (Sweep or UnpinReclaim) requires
// the entry to be unpinned, the monitor fully quiescent, and the lock word
// no longer inflated; it bumps the entry's generation and pushes the slot
// onto the free list. A ticket observed before reclamation then fails
// PinWord's generation check — the stale reader retries against the
// current word instead of entering a recycled monitor (the ABA defense the
// monitor-identity oracle in internal/history checks).
//
// # Pins
//
// A pin marks the window where a thread holds a reference to the entry
// (a Bind handle or a resolved ticket) that is not yet visible in the
// monitor's own state — e.g. an FLC contender between timed parks, or a
// fat enterer between resolving the ticket and joining the entry queue.
// The sweeper skips pinned entries; monitor non-quiescence covers every
// other live reference. Pins are counted under the shard lock, never on
// any per-lock fast path.
//
// # Lock ordering
//
// shard.mu is acquired before the monitor's internal mutex (sweeper,
// reclamation); nothing acquires shard.mu while holding a monitor mutex.
// Schedule points fire BEFORE the locks are taken — a token-holding
// thread must never block on a mutex held by a parked thread.
package montable

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/history"
	"repro/internal/lockword"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Bug selects a deliberately-seeded defect for harness validation.
type Bug int

const (
	// BugNone is the correct implementation.
	BugNone Bug = iota
	// BugLostWaiter makes the sweeper skip the pin and quiescence guards
	// and force-reset swept monitors, abandoning queued enterers and
	// condition waiters. The churn-torture suite MUST catch it (the
	// inverted CI step proves it does).
	BugLostWaiter
)

// Config tunes the table. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// Shards is the number of shards, rounded up to a power of two.
	// Default 8. The ticket encoding gives the shard index
	// lockword.TicketShardBits (8) bits, so New clamps a larger request to
	// 256 shards; it is not an error.
	Shards int
	// ShardCapacity is the initial arena capacity per shard. Default 16.
	ShardCapacity int
	// IdleEpochs is how many sweep epochs an entry must sit unused before
	// the sweeper may touch it. Default 2.
	IdleEpochs uint64
	// SweepInterval is the background sweeper period for Start. Default
	// 10ms. Explicit Sweep calls work regardless.
	SweepInterval time.Duration
	// Sched exposes the table's bind/pin/sweep/reclaim decision points to
	// the schedule-injection kernel. Nil is the production setting.
	Sched *sched.Hooks
	// History, when set, records MonBind/MonEnter/MonReclaim transitions
	// for the monitor-identity oracle. Nil records nothing.
	History *history.Recorder
	// Metrics, when set, receives sweep latency samples.
	Metrics *metrics.Registry
	// Bug seeds a deliberate defect (harness validation only).
	Bug Bug
}

// entry is one monitor slot in a shard's arena. All fields are guarded by
// the shard lock except the monitor's own internals.
type entry struct {
	mon     *monitor.Monitor
	word    *atomic.Uint64 // the bound lock's word; nil while unbound
	gen     uint32         // current binding generation
	index   uint32         // position in the arena (immutable)
	pins    int32
	lastUse uint64 // table epoch at last bind/pin
	bound   bool
}

// shard is one cache-line-padded stripe of the table: a map from lock
// identity to arena index, the arena itself, and a LIFO free list of
// reclaimable slots.
type shard struct {
	id uint32
	mu sync.Mutex

	// byWord maps a bound lock's word address to its arena index. Entries
	// never move in the arena, so the map only stores indexes.
	byWord map[uintptr]uint32

	arena []*entry
	free  []uint32 // LIFO: reclaimed slots, ready to rebind

	_ [stats.FalseSharingRange]byte // keep neighboring shard locks apart
}

// Table is the compact monitor table. Create with New; the zero value is
// not usable.
type Table struct {
	cfg       Config
	shards    []*shard
	shardMask uint64
	epoch     atomic.Uint64

	// Churn counters (atomics; readable without locks).
	binds             atomic.Uint64 // fresh bindings
	rebinds           atomic.Uint64 // bindings that recycled a reclaimed slot
	pinsTotal         atomic.Uint64 // successful PinWord resolutions
	stalePins         atomic.Uint64 // PinWord rejections (reclaimed/recycled)
	sweeps            atomic.Uint64 // completed Sweep passes
	sweepDeflations   atomic.Uint64 // lock words demoted to flat by the sweeper
	sweepReclaims     atomic.Uint64 // entries reclaimed by the sweeper
	releaseReclaims   atomic.Uint64 // entries reclaimed on release (UnpinReclaim)
	sweepSkipPinned   atomic.Uint64 // sweep skips: entry pinned
	sweepSkipFresh    atomic.Uint64 // sweep skips: used within IdleEpochs
	sweepSkipBusy     atomic.Uint64 // sweep skips: monitor not quiescent
	sweepNanos        atomic.Uint64 // cumulative wall time inside Sweep
	lostWaiterInjects atomic.Uint64 // BugLostWaiter force-resets (bug runs only)

	sweeperMu sync.Mutex
	stop      chan struct{}
	done      chan struct{}
}

// Shared is the process-wide table behind every lock whose Config leaves
// Monitors nil. It runs no background sweeper: a fat lock returns its entry
// on the release that deflates it, so the table holds one monitor per lock
// that is fat right now, not per lock that was ever fat.
var Shared = New(Config{})

// New creates a table. Defaults are applied to zero Config fields.
func New(cfg Config) *Table {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	cfg.Shards = stats.CeilPow2(cfg.Shards)
	if cfg.Shards > 1<<lockword.TicketShardBits {
		cfg.Shards = 1 << lockword.TicketShardBits
	}
	if cfg.ShardCapacity <= 0 {
		cfg.ShardCapacity = 16
	}
	if cfg.IdleEpochs == 0 {
		cfg.IdleEpochs = 2
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = 10 * time.Millisecond
	}
	t := &Table{cfg: cfg, shardMask: uint64(cfg.Shards - 1)}
	t.shards = make([]*shard, cfg.Shards)
	for i := range t.shards {
		t.shards[i] = &shard{id: uint32(i), byWord: make(map[uintptr]uint32)}
	}
	return t
}

// Handle is a pinned reference to a bound entry. Mon is the entry's
// monitor and Word the ticket word the binding publishes when inflated.
// Every Handle must be returned with Unpin or UnpinReclaim.
type Handle struct {
	t    *Table
	s    *shard
	e    *entry
	Mon  *monitor.Monitor
	Word uint64
}

func (t *Table) shardFor(key uintptr) *shard {
	return t.shards[stats.SlotHash(0, key)&t.shardMask]
}

// Bind finds or creates the binding for the lock whose word is w and pins
// it. The inflating thread calls it once at the top of its contention
// path and keeps the pin across FLC parks; the returned Handle.Word is
// the inflated word to publish.
func (t *Table) Bind(w *atomic.Uint64, tid uint64) Handle {
	t.cfg.Sched.Point(tid, sched.PTableBind)
	key := uintptr(unsafe.Pointer(w))
	s := t.shardFor(key)
	s.mu.Lock()
	e := s.lookup(key)
	if e == nil {
		e = s.alloc(t)
		e.word = w
		e.bound = true
		s.byWord[key] = e.index
		word := lockword.TicketWord(s.id, e.index, e.gen)
		t.cfg.History.Record(history.MonBind, tid, word)
	} else {
		t.cfg.History.Record(history.MonEnter, tid, lockword.TicketWord(s.id, e.index, e.gen))
		t.pinsTotal.Add(1)
	}
	e.pins++
	e.lastUse = t.epoch.Load()
	h := Handle{t: t, s: s, e: e, Mon: e.mon, Word: lockword.TicketWord(s.id, e.index, e.gen)}
	s.mu.Unlock()
	return h
}

// PinWord resolves an observed inflated word to its live binding and pins
// it. It returns ok=false when the ticket is stale — the binding was
// reclaimed (and possibly recycled at a later generation) after the word
// was read — in which case the caller must re-read the lock word and
// retry. FLC and lock bits on v are ignored; only the ticket matters.
func (t *Table) PinWord(v uint64, tid uint64) (Handle, bool) {
	t.cfg.Sched.Point(tid, sched.PTablePin)
	tk := lockword.MonitorID(v)
	si := lockword.TicketShard(tk)
	if uint64(si) > t.shardMask {
		t.stalePins.Add(1)
		return Handle{}, false
	}
	s := t.shards[si]
	idx, gen := lockword.TicketIndex(tk), lockword.TicketGen(tk)
	s.mu.Lock()
	if int(idx) >= len(s.arena) {
		s.mu.Unlock()
		t.stalePins.Add(1)
		return Handle{}, false
	}
	e := s.arena[idx]
	if !e.bound || e.gen != gen {
		s.mu.Unlock()
		t.stalePins.Add(1)
		return Handle{}, false
	}
	e.pins++
	e.lastUse = t.epoch.Load()
	word := lockword.TicketWord(s.id, e.index, e.gen)
	t.cfg.History.Record(history.MonEnter, tid, word)
	t.pinsTotal.Add(1)
	h := Handle{t: t, s: s, e: e, Mon: e.mon, Word: word}
	s.mu.Unlock()
	return h, true
}

// FindBound pins the existing binding for the lock whose word is w
// WITHOUT creating one. Release paths use it to reach cond waiters or FLC
// parkers that keep an entry bound after the word itself deflated.
func (t *Table) FindBound(w *atomic.Uint64, tid uint64) (Handle, bool) {
	key := uintptr(unsafe.Pointer(w))
	s := t.shardFor(key)
	s.mu.Lock()
	e := s.lookup(key)
	if e == nil {
		s.mu.Unlock()
		return Handle{}, false
	}
	e.pins++
	e.lastUse = t.epoch.Load()
	h := Handle{t: t, s: s, e: e, Mon: e.mon, Word: lockword.TicketWord(s.id, e.index, e.gen)}
	s.mu.Unlock()
	return h, true
}

// HeldBy resolves the inflated word v and reports whether tid owns its
// monitor. resolved is false when the ticket is stale: the fat episode
// ended, and the caller falls back to its flat reading of the current word.
// The probe's pin is dropped reclaim-checked, because a non-owner's pin can
// outlive the owner's deflating release.
func (t *Table) HeldBy(v, tid uint64) (held, resolved bool) {
	h, ok := t.PinWord(v, tid)
	if !ok {
		return false, false
	}
	held = h.Mon.HeldBy(tid)
	h.UnpinReclaim(tid)
	return held, true
}

// Unpin releases a pin with no reclamation attempt.
func (h Handle) Unpin() {
	h.s.mu.Lock()
	h.e.pins--
	h.s.mu.Unlock()
}

// UnpinReclaim releases a pin and, when this was the last pin on a bound
// entry whose monitor is fully quiescent and whose lock word is no longer
// inflated, reclaims the entry on the spot — the on-release half of the
// deflation policy, so a deflating release immediately returns its
// monitor to the free list instead of waiting for the sweeper.
func (h Handle) UnpinReclaim(tid uint64) {
	t := h.t
	t.cfg.Sched.Point(tid, sched.PTableReclaim)
	h.s.mu.Lock()
	h.e.pins--
	if h.e.pins == 0 && h.e.bound {
		m := h.e.mon
		m.RawLock()
		if m.QuiescentLocked() && !lockword.Inflated(h.e.word.Load()) {
			m.ResetLocked()
			h.s.unbind(t, h.e, tid)
			t.releaseReclaims.Add(1)
		}
		m.RawUnlock()
	}
	h.s.mu.Unlock()
}

// Sweep runs one deflation epoch over every shard: idle, unpinned,
// enter-quiescent entries get their lock words demoted to flat mode, and
// fully quiescent ones are reclaimed. tid labels the sweep for schedule
// injection and history.
func (t *Table) Sweep(tid uint64) {
	start := metrics.Now()
	stalled := false
	epoch := t.epoch.Add(1)
	for _, s := range t.shards {
		t.cfg.Sched.Point(tid, sched.PTableSweep)
		s.mu.Lock()
		for _, e := range s.arena {
			if !e.bound {
				continue
			}
			if t.cfg.Bug == BugLostWaiter {
				// Seeded defect: reclaim with no pin or quiescence
				// guards, abandoning whoever is queued on the monitor.
				e.mon.RawLock()
				e.mon.ForceResetLocked()
				e.word.Store(e.mon.SavedCounter)
				e.mon.RawUnlock()
				s.unbind(t, e, tid)
				t.sweepReclaims.Add(1)
				t.lostWaiterInjects.Add(1)
				continue
			}
			if e.pins > 0 {
				t.sweepSkipPinned.Add(1)
				stalled = true
				continue
			}
			// An entry last used in epoch window u becomes eligible only
			// after sitting through IdleEpochs FULL windows: at the sweep
			// that starts epoch u+IdleEpochs+1 (<=, not <, or an entry
			// bound moments before a sweep would count as idle).
			if epoch-e.lastUse <= t.cfg.IdleEpochs {
				t.sweepSkipFresh.Add(1)
				continue
			}
			m := e.mon
			m.RawLock()
			if !m.EnterQuiescentLocked() {
				t.sweepSkipBusy.Add(1)
				stalled = true
				m.RawUnlock()
				continue
			}
			// Word deflation: demote the lock to flat mode by
			// republishing the counter stashed at inflation. Legal while
			// condition waiters exist (they reacquire through the flat
			// path). An FLC bit on the ticket word is stale: a contender
			// that sets FLC keeps its Bind pin until it stops parking, and
			// the entry is unpinned. It must not block the demotion, or a
			// lock whose releases never deflate stays fat for good. The
			// CAS still fails if the word moves after the load.
			tw := lockword.TicketWord(s.id, e.index, e.gen)
			if w := e.word.Load(); w&^lockword.FLCBit == tw && e.word.CompareAndSwap(w, m.SavedCounter) {
				t.sweepDeflations.Add(1)
				t.cfg.History.Record(history.Deflate, tid, m.SavedCounter)
			}
			// Entry reclamation needs full quiescence AND a flat word.
			if m.QuiescentLocked() && !lockword.Inflated(e.word.Load()) {
				m.ResetLocked()
				s.unbind(t, e, tid)
				t.sweepReclaims.Add(1)
			}
			m.RawUnlock()
		}
		s.mu.Unlock()
	}
	t.sweeps.Add(1)
	dur := metrics.Now() - start
	t.sweepNanos.Add(uint64(dur))
	if stalled {
		// A pass that live lock traffic (pinned or non-quiescent
		// entries) kept from reclaiming is one "sweep-stall" wait.
		t.cfg.Metrics.EndWait(uint32(tid), metrics.WaitSweepStall, start)
	} else {
		t.cfg.Metrics.RecordSweep(tid, time.Duration(dur))
	}
}

// Start launches the background sweeper at Config.SweepInterval. Stop
// halts it. Start after Start is a no-op until Stop.
func (t *Table) Start() {
	t.sweeperMu.Lock()
	defer t.sweeperMu.Unlock()
	if t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	stop, done := t.stop, t.done
	go func() {
		defer close(done)
		ticker := time.NewTicker(t.cfg.SweepInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				t.Sweep(0)
			}
		}
	}()
}

// Stop halts the background sweeper and waits for it to exit.
func (t *Table) Stop() {
	t.sweeperMu.Lock()
	defer t.sweeperMu.Unlock()
	if t.stop == nil {
		return
	}
	close(t.stop)
	<-t.done
	t.stop, t.done = nil, nil
}

// alloc takes a slot from the free list (a rebind: the generation was
// already bumped at reclaim) or appends a fresh entry. Caller holds s.mu.
func (s *shard) alloc(t *Table) *entry {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		t.rebinds.Add(1)
		return s.arena[idx]
	}
	if len(s.arena) >= 1<<lockword.TicketIndexBits {
		// 16M concurrently-bound monitors in one shard exceeds the ticket
		// index width; with working deflation this is unreachable.
		panic("montable: shard arena overflow")
	}
	e := &entry{mon: monitor.NewLocal(uint64(s.id)<<32 | uint64(len(s.arena))), index: uint32(len(s.arena))}
	s.arena = append(s.arena, e)
	t.binds.Add(1)
	return e
}

// unbind retires e's current binding: generation bump, map delete,
// free-list push. Caller holds s.mu (and has reset the monitor).
func (s *shard) unbind(t *Table, e *entry, tid uint64) {
	t.cfg.History.Record(history.MonReclaim, tid, lockword.TicketWord(s.id, e.index, e.gen))
	delete(s.byWord, uintptr(unsafe.Pointer(e.word)))
	e.bound = false
	e.word = nil
	e.gen = (e.gen + 1) & uint32(lockword.TicketGenMask)
	s.free = append(s.free, e.index)
}

// lookup finds the live entry bound to key, or nil. Caller holds s.mu.
func (s *shard) lookup(key uintptr) *entry {
	if idx, ok := s.byWord[key]; ok {
		return s.arena[idx]
	}
	return nil
}

// Stats is a point-in-time snapshot of the table's occupancy and churn.
type Stats struct {
	Shards          int
	Capacity        int // arena slots allocated across all shards
	Bound           int // live bindings (the steady-state monitor count)
	Pinned          int // entries with at least one pin
	FreeListLen     int
	Binds           uint64
	Rebinds         uint64
	Pins            uint64
	StalePins       uint64
	Sweeps          uint64
	SweepDeflations uint64
	SweepReclaims   uint64
	ReleaseReclaims uint64
	SweepSkipPinned uint64
	SweepSkipFresh  uint64
	SweepSkipBusy   uint64
	SweepNanos      uint64
	LostWaiterBugs  uint64
}

// Snapshot walks the shards (under their locks) and returns current
// occupancy plus the churn counters.
func (t *Table) Snapshot() Stats {
	st := Stats{
		Shards:          len(t.shards),
		Binds:           t.binds.Load(),
		Rebinds:         t.rebinds.Load(),
		Pins:            t.pinsTotal.Load(),
		StalePins:       t.stalePins.Load(),
		Sweeps:          t.sweeps.Load(),
		SweepDeflations: t.sweepDeflations.Load(),
		SweepReclaims:   t.sweepReclaims.Load(),
		ReleaseReclaims: t.releaseReclaims.Load(),
		SweepSkipPinned: t.sweepSkipPinned.Load(),
		SweepSkipFresh:  t.sweepSkipFresh.Load(),
		SweepSkipBusy:   t.sweepSkipBusy.Load(),
		SweepNanos:      t.sweepNanos.Load(),
		LostWaiterBugs:  t.lostWaiterInjects.Load(),
	}
	for _, s := range t.shards {
		s.mu.Lock()
		st.Capacity += len(s.arena)
		st.FreeListLen += len(s.free)
		for _, e := range s.arena {
			if e.bound {
				st.Bound++
			}
			if e.pins > 0 {
				st.Pinned++
			}
		}
		s.mu.Unlock()
	}
	return st
}

// FootprintBytes estimates the table's heap footprint: the binding maps,
// arena slots, free-list backing, and one monitor per allocated entry.
// It is the numerator of the bytes-per-lock figure lockstats reports —
// shared table cost amortized over however many locks rent from it. A map
// is counted by its live bindings (one key and one index each), not by
// the buckets it has grown to: Go reports no map capacity, and a map keeps
// its buckets after deletes, so after a burst of bindings the estimate is
// low by the emptied buckets.
func (t *Table) FootprintBytes() uint64 {
	const (
		entryBytes   = uint64(unsafe.Sizeof(entry{}))
		monitorBytes = uint64(unsafe.Sizeof(monitor.Monitor{}))
		shardBytes   = uint64(unsafe.Sizeof(shard{}))
	)
	total := uint64(unsafe.Sizeof(Table{})) + uint64(len(t.shards))*shardBytes
	for _, s := range t.shards {
		s.mu.Lock()
		total += uint64(len(s.byWord))*uint64(unsafe.Sizeof(uintptr(0))+4) +
			uint64(cap(s.free))*4 +
			uint64(cap(s.arena))*uint64(unsafe.Sizeof((*entry)(nil))) +
			uint64(len(s.arena))*(entryBytes+monitorBytes)
		s.mu.Unlock()
	}
	return total
}

// Map flattens the snapshot into the string-keyed counter form backend
// stats use.
func (st Stats) Map() map[string]uint64 {
	return map[string]uint64{
		"tableShards":          uint64(st.Shards),
		"tableCapacity":        uint64(st.Capacity),
		"tableBound":           uint64(st.Bound),
		"tablePinned":          uint64(st.Pinned),
		"tableFree":            uint64(st.FreeListLen),
		"tableBinds":           st.Binds,
		"tableRebinds":         st.Rebinds,
		"tablePins":            st.Pins,
		"tableStalePins":       st.StalePins,
		"tableSweeps":          st.Sweeps,
		"tableSweepDeflations": st.SweepDeflations,
		"tableSweepReclaims":   st.SweepReclaims,
		"tableReleaseReclaims": st.ReleaseReclaims,
		"tableSweepSkipPinned": st.SweepSkipPinned,
		"tableSweepSkipFresh":  st.SweepSkipFresh,
		"tableSweepSkipBusy":   st.SweepSkipBusy,
		"tableSweepNanos":      st.SweepNanos,
	}
}
