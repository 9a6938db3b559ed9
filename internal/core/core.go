// Package core implements SOLERO (Software Optimistic Lock Elision for
// Read-Only critical sections), the paper's primary contribution (§3): a
// drop-in replacement for the conventional Java lock that provides full
// monitor functionality — reentrancy, bi-modal thin/fat switching, and
// multi-tier contention management — while letting read-only critical
// sections complete without ever writing the lock variable.
//
// The flat word uses lockword's SOLERO layout (Figure 5): while the lock is
// free, bits 8..63 hold a sequence counter; while held, they hold the owner
// thread id and bit 2 (the lock bit) is set. A writing critical section
// CASes the free word to tid|LockBit, remembers the pre-acquire word (the
// "local lock variable"), and releases by storing that word advanced by one
// counter unit — so every writing section leaves the counter changed.
// A read-only critical section (ReadOnly) loads the word, runs
// speculatively if the low three bits are clear, and succeeds iff the word
// is unchanged at the end (Figure 7). Inconsistent speculative reads are
// recovered from via panic/recover (the stand-in for the paper's generated
// catch blocks, §3.3) and via asynchronous checkpoint validation for
// infinite loops (jthread.Checkpoint). ReadMostly implements the §5
// extension: a section that encounters a write upgrades in place by CASing
// its saved word to an owned word, which simultaneously validates every
// read performed so far (Figure 17).
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/montable"
	"repro/internal/sched"
)

// Bug selects a deliberately injected protocol defect, used by the
// schedule-injection harness (internal/schedcheck) to validate that its
// oracles actually catch broken lock implementations. Production code
// leaves it zero.
type Bug uint8

const (
	// BugNone runs the correct protocol.
	BugNone Bug = iota
	// BugNoCounterBump makes flat writing releases republish the counter
	// they acquired instead of advancing it — the classic SOLERO protocol
	// break: a concurrently eliding reader that straddles the whole
	// write sees an unchanged word and validates a torn snapshot (ABA).
	BugNoCounterBump
)

// Config tunes the SOLERO protocol. Use DefaultConfig as a starting point;
// a nil Config given to New means DefaultConfig. Set every field before
// passing the Config to New: a lock fixes some choices at New — whether it
// is counted and its read sections sample (Metrics non-nil; see Stats and
// CountedConfig), and whether they may take the
// hook-free first attempt, which needs Sched and History nil and
// DisableElision off. Metrics does not disqualify it: an unsampled
// section of a metered lock takes the same attempt. Fences are not
// modelled here: Go's atomics are sequentially consistent, and the §3.4
// fence costs live in the coherence simulator (internal/simcoherence).
type Config struct {
	// Tier1/Tier2/Tier3 parameterize the three-tier contention loops
	// (innermost backoff spins, acquisition attempts per round, yield
	// rounds), used by both the writing slow path and Figure 8's
	// read-entry slow path.
	Tier1, Tier2, Tier3 int
	// Deflate enables reverting a fat lock to flat mode on a full release
	// with no parked threads. Deflation republishes the incremented
	// counter stashed in the monitor at inflation time, so concurrently
	// eliding readers observe a changed word.
	Deflate bool
	// FLCTimeout bounds parking on the FLC bit.
	FLCTimeout time.Duration
	// MaxElisionFailures is the number of failed speculative executions
	// of a read-only section before falling back to real lock
	// acquisition. The paper uses 1.
	MaxElisionFailures int
	// DisableElision makes every elided entry take the writing path
	// (the paper's "Unelided-SOLERO" configuration in Figure 10).
	DisableElision bool
	// Metrics, when non-nil, feeds the observability registry: latency
	// histograms for the slow paths, the abort-cause taxonomy, and sampled
	// critical-section durations (see internal/metrics). Nil costs one
	// predictable branch per hook. It also makes the lock counted: only a
	// lock with a registry keeps FastAcquires and ElisionSuccesses (see
	// Stats). Either way the read fast path writes no shared line: a read
	// section of a counted lock ticks a thread-local sampler and bumps a
	// thread-owned slot, and one the sampler did not select otherwise runs
	// exactly as with Metrics nil. The sampling period belongs to the
	// registry (Registry.SetSamplePeriod).
	Metrics *metrics.Registry

	// Sched, when non-nil, yields to a deterministic schedule-injection
	// controller at named points inside the protocol (internal/sched). In
	// production it is nil and every point is a single predictable branch.
	Sched *sched.Hooks
	// History, when non-nil, is the protocol event log: every transition
	// (acquires, releases, elisions and their failures, inflations, waits)
	// is recorded into it once, for the invariant oracle and the flight
	// recorder alike (internal/history; `lockstats -trace` prints its
	// tail). Nil in production, same single-branch cost.
	History *history.Recorder
	// Bug injects a protocol defect for oracle validation (see Bug).
	Bug Bug
	// Monitors is the compact monitor table fat mode rents from: inflation
	// binds a table entry, the inflated word carries the entry's ticket, and
	// deflation (on release or by the table's sweeper) returns the entry to
	// the free list, so the monitor count tracks contended locks, not
	// allocated ones. Nil means montable.Shared, the process-wide table.
	Monitors *montable.Table
}

// DefaultConfig matches the paper's setup: three-tier contention
// management and fallback after a single elision failure.
var DefaultConfig = &Config{
	Tier1:              32,
	Tier2:              16,
	Tier3:              4,
	Deflate:            true,
	FLCTimeout:         monitor.DefaultWaitTimeout,
	MaxElisionFailures: 1,
}

// CountedConfig returns a copy of base (nil: DefaultConfig) whose locks are
// counted (Stats.Counted). It wires the process-wide counting registry, a
// metrics registry that times one read section in 2^31 per thread, so a
// counted lock's sections take the same paths as an uncounted lock's and
// add only the owned-slot increments. Wire a registry of your own instead
// to sample section durations too.
func CountedConfig(base *Config) *Config {
	if base == nil {
		base = DefaultConfig
	}
	cfg := *base
	cfg.Metrics = countingRegistry()
	return &cfg
}

// countingRegistry is the registry CountedConfig wires, built at first use.
var countingRegistry = sync.OnceValue(func() *metrics.Registry {
	r := metrics.New(0)
	r.SetSamplePeriod(1 << 31)
	return r
})

// hookFree reports whether read sections may take the hook-free first
// attempt: no schedule hook or event log is wired, and DisableElision is
// off. A metrics registry may be wired: the attempt serves the sections its
// sampler did not select, and hands their failures to the elision loop,
// which classifies them. New decides it once per lock (see Config).
func (c *Config) hookFree() bool {
	return c.Sched == nil && c.History == nil && !c.DisableElision
}

// Lock is a SOLERO lock. The zero value is not ready; use New.
//
// A lock is one 64-B allocation, one cache line: what an elided read or an
// uncontended write loads — the word, cfg, the owner's saved word and the
// hookFree/metered flags — plus the stats id, the cold-block pointer and the
// 19 one-byte Counter views. No thread but the owner writes the line on the
// fast paths, and the owner writes saved only right after its CAS has taken
// the line exclusive; the stats id and the cold pointer are each set once,
// by CAS. The counts live off the lock (see stats.go): a counted lock's
// single-writer counters in thread-owned counter pages, everything else in
// the cold block. An uncounted lock (Metrics nil, the default) keeps no
// single-writer counters, so its elided read writes nothing at all and it
// never takes a stats id. A lock must not be copied.
type Lock struct {
	word atomic.Uint64
	cfg  *Config

	// saved is the owner's "local lock variable": the free word read
	// immediately before the acquiring CAS. Only the flat owner accesses
	// it, and the word's atomic acquire/release edges order successive
	// owners' accesses, so a plain field is sound.
	saved uint64

	// cold is the lock's cold block: the shared counters and the static
	// id, rented on the first event that needs it.
	cold atomic.Pointer[coldBlock]

	// id is the lock's stats id: the index of its slots in the threads'
	// counter pages (0 until its first count, and always on an uncounted
	// lock).
	id atomic.Uint32

	// hookFree is cfg.hookFree() as of New: an elided read decides on its
	// hook-free first attempt with one byte of the line it loads anyway.
	hookFree bool
	// metered is cfg.Metrics != nil as of New: whether the lock is
	// counted and a read section ticks the CS-duration sampler, decided
	// on the same line.
	metered bool

	// st is the Counter views, one byte each.
	st Stats
}

// New creates a free lock (counter zero). nil cfg means DefaultConfig.
func New(cfg *Config) *Lock {
	if cfg == nil {
		cfg = DefaultConfig
	}
	l := &Lock{cfg: cfg, hookFree: cfg.hookFree(), metered: cfg.Metrics != nil}
	l.st.init()
	return l
}

// table returns the monitor table fat mode rents from (see Config.Monitors).
func (l *Lock) table() *montable.Table {
	if mt := l.cfg.Monitors; mt != nil {
		return mt
	}
	return montable.Shared
}

// Word returns the raw lock word (diagnostics and tests).
func (l *Lock) Word() uint64 { return l.word.Load() }

// SetStaticID attaches the lock's static identity — the display form the
// guardedby analyzer uses ("Type.mu" for fields, "pkgpath.name" for
// globals). A verify-mode SectionRegistry uses it to latch a divergence
// when a speculating section touches a field whose facts-file guard is a
// different lock. Set it once at construction; "" (the default) disables
// the cross-check for this lock.
func (l *Lock) SetStaticID(id string) { l.coldBlock().staticID = id }

// StaticID returns the identity set by SetStaticID.
func (l *Lock) StaticID() string {
	if c := l.cold.Load(); c != nil {
		return c.staticID
	}
	return ""
}

// Stats exposes the lock's event counters.
func (l *Lock) Stats() *Stats { return &l.st }

// Config returns the lock's configuration.
func (l *Lock) Config() *Config { return l.cfg }

// Inflated reports whether the lock is in fat mode.
func (l *Lock) Inflated() bool { return lockword.Inflated(l.word.Load()) }

// HeldBy reports whether t owns the lock (flat or fat).
func (l *Lock) HeldBy(t *jthread.Thread) bool {
	v := l.word.Load()
	if lockword.Inflated(v) {
		return l.heldFat(t, v)
	}
	return lockword.SoleroHeldBy(v, t.ID())
}

// Lock acquires the lock for a writing critical section (Figure 6): CAS the
// free word to tid|LockBit, keeping the pre-acquire word as the local lock
// variable.
func (l *Lock) Lock(t *jthread.Thread) {
	tid := t.ID()
	for {
		v := l.word.Load()
		if lockword.SoleroFree(v) {
			l.cfg.Sched.Point(tid, sched.PAcquireCAS)
			if l.word.CompareAndSwap(v, lockword.SoleroOwned(tid, 0)) {
				l.saved = v
				if l.metered && !l.bump(t, cFastAcquires) {
					l.bumpSlow(t, cFastAcquires)
				}
				l.cfg.History.Record(history.Acquire, tid, v)
				l.cfg.Sched.Point(tid, sched.PAcquired)
				return
			}
			continue
		}
		l.slowEnter(t, v)
		return
	}
}

// releaseWord derives the word a flat writing release publishes from the
// owner's local lock variable: the saved free word advanced by one counter
// unit. Under BugNoCounterBump it republishes the counter unchanged (low
// byte cleared, so any stale FLC bit still drops) — the injected defect the
// schedule harness must catch.
func (l *Lock) releaseWord(saved uint64) uint64 {
	if l.cfg.Bug == BugNoCounterBump {
		return saved &^ lockword.LowByte
	}
	return lockword.SoleroNextFree(saved)
}

// Unlock releases one level of ownership (Figure 6): when the low byte is
// exactly the lock bit, store the local lock variable advanced by one
// counter unit; otherwise take the slow path.
func (l *Lock) Unlock(t *jthread.Thread) {
	v2 := l.word.Load()
	if lockword.SoleroFastReleasable(v2) {
		if lockword.Field(v2) != t.ID() {
			panic("core: Unlock by non-owner")
		}
		// Capture the local lock variable before the releasing store:
		// the moment the word is free, the next owner may overwrite it.
		saved := l.saved
		l.cfg.Sched.Point(t.ID(), sched.PRelease)
		w := l.releaseWord(saved)
		// Record before the store: nobody can acquire (and log against)
		// the released word until it is published, which keeps the
		// recorded release order consistent with the counter order.
		l.cfg.History.Record(history.Release, t.ID(), w)
		l.word.Store(w)
		return
	}
	l.slowExit(t, v2)
}

// Sync runs fn while holding the lock for writing — the analogue of a Java
// synchronized block the JIT classified as writing.
func (l *Lock) Sync(t *jthread.Thread, fn func()) {
	l.Lock(t)
	defer l.Unlock(t)
	fn()
}
