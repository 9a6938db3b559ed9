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
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/memmodel"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/montable"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
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
// passing the Config to New: a lock fixes some choices at New — its stripe
// count, the metrics sample period, whether its read sections sample
// (Metrics non-nil), and whether they may take the hook-free first attempt,
// which needs Model, Tracer, Sched and History nil and Adaptive and
// DisableElision off. Metrics does not disqualify it: an unsampled section
// of a metered lock takes the same attempt.
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
	// DisableElision makes ReadOnly take the writing path
	// (the paper's "Unelided-SOLERO" configuration in Figure 10).
	DisableElision bool
	// Adaptive enables per-lock adaptive elision (see adaptive.go): when
	// a window of AdaptiveWindow speculative executions fails at or above
	// AdaptiveFailurePct percent, the next AdaptiveBackoffOps read-only
	// sections take the plain lock before speculation is re-probed.
	// Zero-valued knobs use the defaults in adaptive.go.
	Adaptive           bool
	AdaptiveWindow     uint32
	AdaptiveFailurePct uint32
	AdaptiveBackoffOps int32
	// StatsStripes sets the number of cache-line-padded stat/adaptive
	// stripes per lock (rounded up to a power of two). 0 selects the
	// automatic count (GOMAXPROCS rounded up, capped); 1 collapses the
	// counters onto a single shared stripe — the seed layout, where every
	// elided reader RMWs the same cache line — kept as the comparison
	// baseline for BenchmarkReaderScaling.
	StatsStripes int
	// Model and Plan charge fence costs at the §3.4 placement points.
	Model *memmodel.Model
	Plan  memmodel.Plan
	// Tracer, when non-nil, records protocol transitions into a ring
	// buffer (see internal/trace; `lockstats -trace` prints it).
	Tracer *trace.Ring
	// Metrics, when non-nil, feeds the observability registry: latency
	// histograms for the slow paths, the abort-cause taxonomy, and sampled
	// critical-section durations (see internal/metrics). Nil costs one
	// predictable branch per hook. Either way the read fast path stays
	// write-free: a read section ticks a thread-local sampler, and one the
	// sampler did not select runs exactly as with Metrics nil.
	Metrics *metrics.Registry
	// MetricsSamplePeriod overrides the success-path cs_duration sampling
	// period (rounded up to a power of two; 0 keeps the registry's current
	// period, default 1/64). Applied to Metrics by New, so configs can pin
	// it declaratively; period 1 times every section and stays alloc-free
	// (BenchmarkReadOnlyAllocFreeMetrics).
	MetricsSamplePeriod int

	// Sched, when non-nil, yields to a deterministic schedule-injection
	// controller at named points inside the protocol (internal/sched). In
	// production it is nil and every point is a single predictable branch.
	Sched *sched.Hooks
	// History, when non-nil, records protocol transitions (acquires,
	// releases, elisions, inflations, waits) for the invariant oracle in
	// internal/history. Nil in production, same single-branch cost.
	History *history.Recorder
	// Bug injects a protocol defect for oracle validation (see Bug).
	Bug Bug
	// Monitors, when set, backs fat mode with the shared compact monitor
	// table instead of a per-lock monitor.Global allocation: inflation
	// binds a table entry, the inflated word carries the entry's ticket,
	// and deflation (on release or by the table's sweeper) returns the
	// entry to the free list so the steady-state monitor count tracks
	// contended locks, not allocated ones. Nil keeps the classic
	// per-lock monitor.
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

// hookFree reports whether ReadOnly may take its hook-free first attempt:
// no schedule, history, trace or fence-model hook is wired, and neither
// adaptive elision nor DisableElision is on. A metrics registry may be
// wired: the attempt serves the sections its sampler did not select, and
// classifies their failures (readRetry). New decides it once per lock (see
// Config).
func (c *Config) hookFree() bool {
	return c.Sched == nil && c.History == nil && c.Tracer == nil &&
		c.Model == nil && !c.Adaptive && !c.DisableElision
}

// statsStripeCount resolves the configured stripe count (see
// Config.StatsStripes) to a power of two.
func (c *Config) statsStripeCount() int {
	if c.StatsStripes > 0 {
		return stats.CeilPow2(c.StatsStripes)
	}
	return stats.DefaultStripeCount()
}

// Lock is a SOLERO lock. The zero value is not ready; use New.
//
// The first 64-B line holds what an elided read or an uncontended write
// loads: the word, cfg, the owner's saved word and the stats stripe header.
// No thread but the owner writes that line, and the owner writes saved only
// right after its CAS has taken the line exclusive. Everything other
// threads write — the monitor pointer, the adaptive gate, the shared
// counters — and the read-mostly Counter views lie past it; the striped
// counters live in the separately allocated stripes.
type Lock struct {
	lockHead

	// st is embedded so a stats bump chases no pointer: its stripe header
	// ends the first line (see Stats).
	st Stats

	mon atomic.Pointer[monitor.Monitor]

	// ad holds the shared remainder of the adaptive-elision machinery (the
	// rare backoff gate); the per-execution window counters live in the
	// stats stripes (see adaptive.go).
	ad adaptiveState

	// staticID is the lock's solerovet identity ("Type.mu" /
	// "pkgpath.name"), set by SetStaticID. Verify-mode registries compare
	// it against the static guards of the fields a section touches.
	staticID string
}

// lockHead is the part of Lock before the embedded Stats. Stats pads its
// stripe header out to the end of the first line from lockHead's size, so
// this type alone decides what else shares the word's line.
type lockHead struct {
	word atomic.Uint64
	cfg  *Config

	// saved is the owner's "local lock variable": the free word read
	// immediately before the acquiring CAS. Only the flat owner accesses
	// it, and the word's atomic acquire/release edges order successive
	// owners' accesses, so a plain field is sound.
	saved uint64

	// hookFree is cfg.hookFree() as of New: an elided read decides on its
	// hook-free first attempt with one byte of the line it loads anyway.
	hookFree bool
	// metered is cfg.Metrics != nil as of New: whether a read section
	// ticks the CS-duration sampler, decided on the same line.
	metered bool
}

// New creates a free lock (counter zero). nil cfg means DefaultConfig.
func New(cfg *Config) *Lock {
	if cfg == nil {
		cfg = DefaultConfig
	}
	if cfg.Metrics != nil && cfg.MetricsSamplePeriod > 0 {
		cfg.Metrics.SetSamplePeriod(cfg.MetricsSamplePeriod)
	}
	l := &Lock{lockHead: lockHead{cfg: cfg, hookFree: cfg.hookFree(), metered: cfg.Metrics != nil}}
	l.st.init(cfg.statsStripeCount())
	return l
}

// Word returns the raw lock word (diagnostics and tests).
func (l *Lock) Word() uint64 { return l.word.Load() }

// SetStaticID attaches the lock's static identity — the display form the
// guardedby analyzer uses ("Type.mu" for fields, "pkgpath.name" for
// globals). A verify-mode SectionRegistry uses it to latch a divergence
// when a speculating section touches a field whose facts-file guard is a
// different lock. Set it once at construction; "" (the default) disables
// the cross-check for this lock.
func (l *Lock) SetStaticID(id string) { l.staticID = id }

// StaticID returns the identity set by SetStaticID.
func (l *Lock) StaticID() string { return l.staticID }

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
		if l.cfg.Monitors != nil {
			return l.heldFatTable(t, v)
		}
		return l.monitorFor().HeldBy(t.ID())
	}
	return lockword.SoleroHeldBy(v, t.ID())
}

func (l *Lock) monitorFor() *monitor.Monitor {
	if m := l.mon.Load(); m != nil {
		return m
	}
	m := monitor.Global.New()
	if l.mon.CompareAndSwap(nil, m) {
		return m
	}
	return l.mon.Load()
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
				l.st.bump(t, cFastAcquires)
				l.cfg.Tracer.Record(trace.EvAcquireFast, tid, v)
				l.cfg.History.Record(history.Acquire, tid, v)
				l.cfg.Sched.Point(tid, sched.PAcquired)
				l.cfg.Model.ChargeAtomic()
				l.cfg.Model.Charge(l.cfg.Plan.WriteAcquire)
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
	l.cfg.Model.Charge(l.cfg.Plan.WriteRelease)
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
		l.cfg.Model.ChargeAtomic()
		l.word.Store(w)
		l.cfg.Tracer.Record(trace.EvRelease, t.ID(), saved)
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
