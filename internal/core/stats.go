package core

// Protocol counters. A lock carries no counter bytes of its own beyond its
// one cache line: the 19 exported Counter views are one byte each on that
// line, and the counts live in two places.
//
// The two counters every success would bump — cElisionSuccesses on an
// elided read, cFastAcquires on an uncontended acquire — are kept only by a
// counted lock: one built with Config.Metrics set, which New records in the
// metered byte. An uncounted lock's success paths write nothing but the
// word: an elided read writes no byte at all, as in the paper, and the lock
// never takes a stats id, registers no finalizer and touches no counter
// page. Its Stats report the two counters, and ElisionAttempts, which sums
// them with the other outcomes, as absent (Stats.Counted).
//
// On a counted lock they are single-writer slots in thread-owned counter
// pages (jthread, counters.go), indexed by the lock's stats id. A thread
// bumps its own slot with a plain load and store (ownedInc), so a
// hook-free elided read executes no LOCK-prefixed instruction and writes
// no line another thread writes, which is what BRAVO's distributed reader
// state is for; and the lock pays for it in no byte of its own. A lock
// takes its id at its first count, not at New, and registers the finalizer
// that recycles the id at that moment too, so building a lock costs one
// 64-B allocation and nothing else.
//
// Every other counter — the slow-path events, which already CAS the word or
// a monitor, and a speculation's remaining terminal outcomes (failures,
// fallbacks, faults, async aborts, upgrades), each of which follows a word
// change — is exact on every lock: a shared atomic in the lock's cold
// block, rented the first time the lock sees such an event. The cold block
// also takes the single-writer counters whenever no thread-owned slot can:
// external Add, a detached thread's counts, and every count of a lock that
// found the stats-id space (jthread.MaxCounterID ids) exhausted. Totals stay
// exact in each case.
//
// A Counter's total is its cold slot plus, for a single-writer counter of a
// counted lock, the sum jthread.CounterTotals reads over the threads'
// slots. It is exact once the counting threads are quiescent and never
// moves backwards under concurrency (see jthread's counters.go for the
// argument).

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/jthread"
)

// counterID indexes one protocol counter: the single-writer ids first (a
// slot in the threads' counter pages), then the shared ones.
type counterID uint8

const (
	cFastAcquires counterID = iota
	cElisionSuccesses
	cElisionFailures
	cFallbacks
	cSuppressedFaults
	cGenuineFaults
	cAsyncAborts
	cUpgrades
	cUpgradeFailures
	cSlowAcquires
	cRecursions
	cSpinAcquires
	cFLCWaits
	cInflations
	cDeflations
	cFatEnters
	cReadFatEnters
	cReadRecursions
	// cElisionAttempts' cold slot holds only external Add adjustments; the
	// counter itself is derived from the terminal outcomes.
	cElisionAttempts

	numCounters

	// numOwned counts the single-writer counters, the first ids: one
	// thread-owned slot word each.
	numOwned = cElisionSuccesses + 1
)

// A thread-owned slot holds exactly the single-writer counters.
var _ [jthread.SlotCounters - numOwned]struct{}
var _ [numOwned - jthread.SlotCounters]struct{}

// counterKeys names each counter in Snapshot's key space (unchanged from
// the seed's field-per-counter Stats block).
var counterKeys = [numCounters]string{
	cFastAcquires:     "fastAcquires",
	cSlowAcquires:     "slowAcquires",
	cRecursions:       "recursions",
	cSpinAcquires:     "spinAcquires",
	cFLCWaits:         "flcWaits",
	cInflations:       "inflations",
	cDeflations:       "deflations",
	cFatEnters:        "fatEnters",
	cElisionAttempts:  "elisionAttempts",
	cElisionSuccesses: "elisionSuccesses",
	cElisionFailures:  "elisionFailures",
	cFallbacks:        "fallbacks",
	cReadRecursions:   "readRecursions",
	cReadFatEnters:    "readFatEnters",
	cSuppressedFaults: "suppressedFaults",
	cGenuineFaults:    "genuineFaults",
	cAsyncAborts:      "asyncAborts",
	cUpgrades:         "upgrades",
	cUpgradeFailures:  "upgradeFailures",
}

// attemptOutcomes are the terminal outcomes of a speculative execution:
// each one ends in exactly one of them, so ElisionAttempts is their sum
// rather than a counter the read path pays a second increment for.
var attemptOutcomes = [...]counterID{
	cElisionSuccesses, cElisionFailures, cGenuineFaults, cUpgrades, cUpgradeFailures,
}

// coldBlock is the part of a lock that only slow paths write, rented on
// first use (Lock.coldBlock) and freed with the lock.
type coldBlock struct {
	// c[id] is counter id's shared slot.
	c [numCounters]atomic.Uint64

	// noID is set once the lock found the stats-id space exhausted: its
	// single-writer counters count in c from then on.
	noID atomic.Bool

	// staticID is the lock's solerovet identity (see Lock.SetStaticID).
	staticID string
}

// Stats counts SOLERO protocol events: it is the 19 one-byte Counter
// views, declared in counterID order, that end the lock's line. Each view
// aggregates on Load. The elision counters feed the paper's Figure 15
// failure-ratio experiment.
//
// FastAcquires, ElisionSuccesses and ElisionAttempts are kept only by a
// counted lock (Counted: Config.Metrics was set at New). On an uncounted
// lock they hold only what Add added, Snapshot omits them and FailureRatio
// is 0; every other counter is exact on every lock.
type Stats struct {
	FastAcquires     Counter // uncontended writing acquisitions
	ElisionSuccesses Counter // validated unchanged at exit
	ElisionFailures  Counter // changed word, suppressed fault, or async abort
	Fallbacks        Counter // read sections re-run holding the lock
	SuppressedFaults Counter // panics suppressed as inconsistent reads
	GenuineFaults    Counter // panics validated as genuine and rethrown
	AsyncAborts      Counter // speculations aborted at checkpoints
	Upgrades         Counter // read-mostly in-place upgrades
	UpgradeFailures  Counter // upgrades that forced re-execution
	SlowAcquires     Counter
	Recursions       Counter
	SpinAcquires     Counter
	FLCWaits         Counter
	Inflations       Counter
	Deflations       Counter
	FatEnters        Counter
	ReadFatEnters    Counter // read sections run under the fat lock
	ReadRecursions   Counter // read sections entered reentrantly
	ElisionAttempts  Counter // speculative executions (derived, see attemptOutcomes)
}

// Counter is a read view of one aggregated protocol counter. A view is its
// one-byte id: it finds its lock from its own address, so it must not be
// copied (go vet's copylocks check reports a copy, which reads garbage).
type Counter struct {
	_  noCopy
	id counterID
}

// noCopy makes go vet's copylocks check report a copied Counter.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// lock returns the lock c is a view of: view id lies id bytes past the
// first view, which lies at Lock.st.
func (c *Counter) lock() *Lock {
	return (*Lock)(unsafe.Add(unsafe.Pointer(c), -int(unsafe.Offsetof(Lock{}.st))-int(c.id)))
}

// Load returns the counter's total.
func (c *Counter) Load() uint64 { return c.lock().load(c.id) }

// Add adds n to the counter's cold slot — for external accounting that has
// no thread at hand.
func (c *Counter) Add(n uint64) { c.lock().coldBlock().c[c.id].Add(n) }

// init numbers s's views.
func (s *Stats) init() {
	views := (*[numCounters]Counter)(unsafe.Pointer(s))
	for id := range views {
		views[id].id = counterID(id)
	}
}

// lock returns the lock s belongs to.
func (s *Stats) lock() *Lock { return s.FastAcquires.lock() }

// coldBlock returns the lock's cold block, renting it on first use.
func (l *Lock) coldBlock() *coldBlock {
	if c := l.cold.Load(); c != nil {
		return c
	}
	l.cold.CompareAndSwap(nil, new(coldBlock))
	return l.cold.Load()
}

// inc bumps one shared counter.
func (l *Lock) inc(id counterID) { l.coldBlock().c[id].Add(1) }

// ownedInc increments a single-writer slot with a plain load and store: no
// LOCK prefix. Only the slot's owning thread may call it. It is not
// race-instrumented: readers load the slot atomically, and the detector
// cannot see that the slot has one writer. On targets whose machine word is
// narrower than a uint64 it falls back to an atomic add, since a plain
// store there could be observed torn.
//
//go:norace
func ownedInc(p *atomic.Uint64) {
	if unsafe.Sizeof(uintptr(0)) < unsafe.Sizeof(uint64(0)) {
		p.Add(1)
		return
	}
	*(*uint64)(unsafe.Pointer(p))++
}

// bump increments single-writer counter id (< numOwned) for t with a plain
// increment of t's own slot for the lock's stats id, and reports whether t
// had one. Until t's first count on the lock it has none, and the caller
// counts through bumpSlow instead; keeping that call out of bump keeps bump
// under the inliner's budget, so the success paths pay no call for it.
func (l *Lock) bump(t *jthread.Thread, id counterID) bool {
	if s := t.CounterSlot(l.id.Load()); s != nil {
		ownedInc(&s[id])
		return true
	}
	return false
}

// bumpSlow is bump at t's first count on the lock: it claims the lock's
// stats id if the lock has none, and t's slot for it. Where neither can be
// had — the id space is exhausted, or t has detached — the count goes to
// the cold block.
func (l *Lock) bumpSlow(t *jthread.Thread, id counterID) {
	if sid := l.statsID(); sid != 0 {
		if s := t.NewCounterSlot(sid); s != nil {
			ownedInc(&s[id])
			return
		}
	}
	l.inc(id)
}

// newStatsID issues stats ids; tests of the exhausted outcome replace it.
var newStatsID = jthread.NewCounterID

// statsID returns the lock's stats id, taking one at its first call: the
// winner of the race to set it registers the finalizer that frees the id
// with the lock. It returns 0 when the id space is exhausted.
func (l *Lock) statsID() uint32 {
	if sid := l.id.Load(); sid != 0 {
		return sid
	}
	if c := l.cold.Load(); c != nil && c.noID.Load() {
		return 0
	}
	sid := newStatsID()
	if sid == 0 {
		l.coldBlock().noID.Store(true)
		return 0
	}
	if !l.id.CompareAndSwap(0, sid) {
		jthread.FreeCounterID(sid)
		return l.id.Load()
	}
	runtime.SetFinalizer(l, (*Lock).freeStatsID)
	return sid
}

// freeStatsID is the finalizer of a lock that took a stats id.
func (l *Lock) freeStatsID() { jthread.FreeCounterID(l.id.Load()) }

// countedOnly reports whether counter id is kept only by a counted lock:
// the single-writer counters, and ElisionAttempts, which sums them with the
// other outcomes.
func countedOnly(id counterID) bool { return id < numOwned || id == cElisionAttempts }

// Counted reports whether the lock counts FastAcquires, ElisionSuccesses
// and ElisionAttempts: whether Config.Metrics was set at New.
func (s *Stats) Counted() bool { return s.lock().metered }

// load returns counter id's total.
func (l *Lock) load(id counterID) uint64 {
	var n uint64
	c := l.cold.Load()
	if c != nil {
		n = c.c[id].Load()
	}
	switch {
	case !countedOnly(id) || !l.metered:
		return n
	case id < numOwned:
		return n + jthread.CounterTotals(l.id.Load())[id]
	}
	n += jthread.CounterTotals(l.id.Load())[cElisionSuccesses]
	if c != nil {
		for _, o := range attemptOutcomes {
			n += c.c[o].Load()
		}
	}
	return n
}

// FailureRatio returns ElisionFailures / ElisionAttempts as a percentage
// (0 when no attempts were made, and on an uncounted lock).
func (s *Stats) FailureRatio() float64 {
	if !s.Counted() {
		return 0
	}
	// Failures first: attempts include them, so the later load is never
	// smaller and the ratio stays within 100 under concurrent updates.
	f := s.ElisionFailures.Load()
	a := s.ElisionAttempts.Load()
	if a == 0 {
		return 0
	}
	return 100 * float64(f) / float64(a)
}

// Snapshot returns a plain-value copy of the counters, keyed as in the
// seed implementation. An uncounted lock's snapshot lacks fastAcquires,
// elisionSuccesses and elisionAttempts (see Counted).
func (s *Stats) Snapshot() map[string]uint64 {
	l := s.lock()
	out := make(map[string]uint64, int(numCounters))
	for id := counterID(0); id < numCounters; id++ {
		if l.metered || !countedOnly(id) {
			out[counterKeys[id]] = l.load(id)
		}
	}
	return out
}
