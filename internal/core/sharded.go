package core

// Sharded stats engine. The seed implementation kept all protocol counters
// as shared atomics packed next to the lock word, so every "elided" read
// section still performed shared RMWs — serializing readers on cache-line
// ownership exactly like the lock they were eliding and betraying the
// paper's write-free-readers thesis (§3, Figure 7). Here the counters live
// in an array of cache-line-padded stripes indexed by the calling thread's
// precomputed stripe index (jthread.Thread.StripeIndex), in the style of
// BRAVO's distributed reader state: hot-path increments touch only the
// caller's stripe, and the exported Counter views aggregate across stripes
// when read. Aggregation is exact once writers are quiescent and never
// moves backwards under concurrency (every stripe slot is monotone).
// Only the counters a fast path or a speculation's terminal outcome bumps
// are striped; slow-path events, which already CAS the word or a monitor,
// count once per lock in a shared block.
//
// The two counters every success bumps — cElisionSuccesses on an elided
// read, cFastAcquires on an uncontended acquire — are single-writer slots,
// so a hook-free elided read executes no LOCK-prefixed instruction at all.
// Each stripe names an owner, a thread serial (jthread.Thread.Serial:
// process-unique, never reused, never zero). The owner bumps its slot with
// a plain load and store (ownedInc); every other thread adds atomically to
// the stripe's foreign slot; a Counter's total is owned + foreign. A
// thread claims an unowned stripe by CAS on the owner word, or takes over a
// stripe whose owner has detached once jthread.SerialLive, which reads the
// serial registry under the lock Detach writes it under, says so. That
// read orders the old owner's Detach — and so every plain store it made —
// before the new owner's first store, so a slot never has two writers
// that are not ordered by happens-before.
//
// Memory-model argument for reading a slot while its owner writes it: the
// owned slot is one aligned machine word, and the Go memory model
// guarantees that a racy read of a word-sized location observes a value
// some write actually stored — never a torn or invented one. The owner
// only ever stores its previous value plus one, and each location is
// coherent on every Go target, so a concurrent Snapshot sees each slot
// move only forward: totals stay monotone, and once the writers are
// quiescent (joined, so their stores happen before the read) they are
// exact. Where a uint64 is wider than a machine word (32-bit targets)
// ownedInc falls back to an atomic add. Every other striped counter is
// bumped with an atomic add in the caller's stripe (inc).

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/jthread"
	"repro/internal/stats"
)

// counterID indexes one protocol counter: the striped ids first (a slot in
// every stripe), then the shared ids (a slot in Stats.shared).
type counterID uint8

// Striped counters are the ones the fast paths or a speculation's terminal
// outcome bump: each thread bumps its own stripe, so readers never RMW a
// line another thread writes. Shared counters count slow-path events, which
// already CAS the lock word or a monitor; they live once per lock.
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
	cAdaptiveTrips
	cAdaptiveSkips
	// cElisionAttempts' slot holds only external Add adjustments; the
	// counter itself is derived from the striped terminal outcomes.
	cElisionAttempts

	numCounters

	numStriped = cSlowAcquires
	numShared  = numCounters - numStriped

	// numOwned counts the single-writer counters, the first striped ids:
	// each stripe keeps a foreign slot for each of them (see bump).
	numOwned = cElisionSuccesses + 1
)

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
	cAdaptiveTrips:    "adaptiveTrips",
	cAdaptiveSkips:    "adaptiveSkips",
}

// stripePad rounds statStripe up to the false-sharing range so stripes
// written by different threads never share a line.
const (
	stripeRawBytes = 8*int(numStriped) + 8 + 8 + 8*int(numOwned) // counters, adaptive pair, owner, foreign
	stripePad      = (stats.FalseSharingRange - stripeRawBytes%stats.FalseSharingRange) % stats.FalseSharingRange
)

// statStripe is one thread-stripe's counter block. The adaptive-elision
// window bookkeeping (see adaptive.go) rides in the same stripe: it is
// written on every speculative execution, so it must be just as private to
// the stripe as the event counters. The stripe holds no Go pointer, so a
// lock's stripe block is a no-scan allocation.
type statStripe struct {
	// c[id] for id < numOwned is written by the stripe's owner alone (see
	// bump); the other slots take atomic adds from any thread.
	c [numStriped]atomic.Uint64

	// adAttempts/adFailures are this stripe's slice of the adaptive
	// sampling window (adaptive.go).
	adAttempts atomic.Uint32
	adFailures atomic.Uint32

	// owner is the serial of the thread that owns c[:numOwned] (0: none).
	owner atomic.Uint64
	// foreign[id] takes the bumps of counter id < numOwned from threads
	// that do not own the stripe, and external Counter.Add.
	foreign [numOwned]atomic.Uint64

	_ [stripePad]byte
}

// inc bumps one striped counter in this stripe with an atomic add; a
// single-writer counter goes to the foreign slot, so inc is safe from any
// thread (bump is the owner's locked-instruction-free path).
func (sp *statStripe) inc(id counterID) {
	if id < numOwned {
		sp.foreign[id].Add(1)
		return
	}
	sp.c[id].Add(1)
}

// ownedInc increments a single-writer slot with a plain load and store: no
// LOCK prefix. Only the slot's one writer may call it. It is not
// race-instrumented: the detector cannot see the ownership protocol that
// orders successive writers, and readers load the slot atomically. On
// targets whose machine word is narrower than a uint64 it falls back to an
// atomic add, since a plain store there could be observed torn.
//
//go:norace
func ownedInc(p *atomic.Uint64) {
	if unsafe.Sizeof(uintptr(0)) < unsafe.Sizeof(uint64(0)) {
		p.Add(1)
		return
	}
	*(*uint64)(unsafe.Pointer(p))++
}

// takeoverPace is the mask of jthread.Thread.TakeoverTick: a thread bumping
// another thread's stripe checks whether that owner has detached on its
// first foreign bump and every 64th after, so the registry lock SerialLive
// takes stays off the foreign path.
const takeoverPace = 63

// attemptOutcomes are the terminal outcomes of a speculative execution:
// each one ends in exactly one of them, so ElisionAttempts is their sum
// rather than a counter the read path pays a second increment for.
var attemptOutcomes = [...]counterID{
	cElisionSuccesses, cElisionFailures, cGenuineFaults, cUpgrades, cUpgradeFailures,
}

// slot reads one striped counter of this stripe: its slot, plus the
// foreign slot of a single-writer counter.
func (sp *statStripe) slot(id counterID) uint64 {
	if id < numOwned {
		return sp.c[id].Load() + sp.foreign[id].Load()
	}
	return sp.c[id].Load()
}

// load reads one counter of this stripe: a striped slot, or for
// cElisionAttempts the stripe's terminal outcomes.
func (sp *statStripe) load(id counterID) uint64 {
	if id != cElisionAttempts {
		return sp.slot(id)
	}
	var n uint64
	for _, o := range attemptOutcomes {
		n += sp.slot(o)
	}
	return n
}

// Stats counts SOLERO protocol events. It is embedded in Lock, and its
// stripe header (stripes, mask) sits on the lock's first cache line beside
// the word, so a fast-path bump loads no line but its own stripe's. The
// striped counters are sharded across cache-line-sized stripes indexed by
// thread; the shared counters and the Counter views, declared in counterID
// order, lie past that first line. Each exported Counter aggregates on Load.
// The elision counters feed the paper's Figure 15 failure-ratio experiment.
type Stats struct {
	stripes []statStripe
	mask    uint32
	// Lock's head precedes this Stats: the pad ends the lock's first line
	// after the stripe header.
	_ [stats.CacheLine - unsafe.Sizeof(lockHead{}) - unsafe.Sizeof([]statStripe(nil)) - unsafe.Sizeof(uint32(0))]byte

	shared [numShared]atomic.Uint64

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
	AdaptiveTrips    Counter // adaptive backoffs triggered
	AdaptiveSkips    Counter // read sections routed to the lock by backoff
	ElisionAttempts  Counter // speculative executions (derived, see attemptOutcomes)
}

// Counter is a read view of one aggregated protocol counter: Load sums the
// owning Stats block's stripes (or reads its shared slot). A view is its
// one-byte id: it finds its Stats from its own address, so it must not be
// copied (go vet's copylocks check reports a copy, which reads garbage).
type Counter struct {
	_  noCopy
	id counterID
}

// noCopy makes go vet's copylocks check report a copied Counter.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// stats returns the Stats block c is a view of: view id lies id bytes past
// the first view.
func (c *Counter) stats() *Stats {
	return (*Stats)(unsafe.Add(unsafe.Pointer(c), -int(unsafe.Offsetof(Stats{}.FastAcquires))-int(c.id)))
}

// Load returns the counter's total.
func (c *Counter) Load() uint64 { return c.stats().load(c.id) }

// Add adds n to the counter — for external accounting that has no thread
// at hand: a striped counter takes it on the first stripe (a single-writer
// counter in that stripe's foreign slot, which any thread may add to). Hot
// paths inside the package increment the calling thread's stripe instead.
func (c *Counter) Add(n uint64) {
	switch {
	case c.id >= numStriped:
		c.stats().shared[c.id-numStriped].Add(n)
	case c.id < numOwned:
		c.stats().stripes[0].foreign[c.id].Add(n)
	default:
		c.stats().stripes[0].c[c.id].Add(n)
	}
}

// init sets up s in place with nstripes stripes (a power of two) and
// numbers its views.
func (s *Stats) init(nstripes int) {
	s.stripes, s.mask = make([]statStripe, nstripes), uint32(nstripes-1)
	views := (*[numCounters]Counter)(unsafe.Pointer(&s.FastAcquires))
	for id := range views {
		views[id].id = counterID(id)
	}
}

// stripeFor returns the calling thread's stripe.
func (s *Stats) stripeFor(t *jthread.Thread) *statStripe {
	return &s.stripes[t.StripeIndex()&s.mask]
}

// bump increments single-writer counter id (< numOwned) for t. The
// stripe's owner increments its slot with no locked instruction; anyone
// else claims an unowned stripe or one whose owner detached, or else adds
// to the foreign slot (see the package comment).
func (s *Stats) bump(t *jthread.Thread, id counterID) {
	sp := s.stripeFor(t)
	if sp.owner.Load() == t.Serial() {
		ownedInc(&sp.c[id])
		return
	}
	sp.bumpSlow(t, id)
}

// bumpSlow is bump for a thread that does not own its stripe.
func (sp *statStripe) bumpSlow(t *jthread.Thread, id counterID) {
	o := sp.owner.Load()
	if (o == 0 || t.TakeoverTick(takeoverPace) && !jthread.SerialLive(o)) &&
		sp.owner.CompareAndSwap(o, t.Serial()) {
		ownedInc(&sp.c[id])
		return
	}
	sp.foreign[id].Add(1)
}

// FailureRatio returns ElisionFailures / ElisionAttempts as a percentage
// (0 when no attempts were made).
func (s *Stats) FailureRatio() float64 {
	// Failures first: attempts include them, so the later load is never
	// smaller and the ratio stays within 100 under concurrent updates.
	f := s.ElisionFailures.Load()
	a := s.ElisionAttempts.Load()
	if a == 0 {
		return 0
	}
	return 100 * float64(f) / float64(a)
}

// incShared bumps one shared counter.
func (s *Stats) incShared(id counterID) { s.shared[id-numStriped].Add(1) }

// load returns counter id's total: the sum of its stripe slots, or its
// shared slot (plus, for cElisionAttempts, every stripe's outcomes).
func (s *Stats) load(id counterID) uint64 {
	var n uint64
	if id >= numStriped {
		n = s.shared[id-numStriped].Load()
		if id != cElisionAttempts {
			return n
		}
	}
	for i := range s.stripes {
		n += s.stripes[i].load(id)
	}
	return n
}

// Snapshot returns a plain-value copy of all counters, aggregated across
// stripes. Keys are unchanged from the seed implementation.
func (s *Stats) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, int(numCounters))
	for id := counterID(0); id < numCounters; id++ {
		out[counterKeys[id]] = s.load(id)
	}
	return out
}

// NumStripes returns the stripe count (a power of two; 1 reproduces the
// seed's shared-counter layout).
func (s *Stats) NumStripes() int { return len(s.stripes) }

// StripeSnapshot returns stripe i's un-aggregated counters, keyed as
// Snapshot: the striped counters plus elisionAttempts (derived from the
// stripe's outcomes). Shared counters have no per-stripe value and are
// absent; SharedSnapshot reports them once. For every key, Snapshot equals
// the sum over stripes plus the shared value. lockstats -stripes prints
// these so skew across thread ids is visible.
func (s *Stats) StripeSnapshot(i int) map[string]uint64 {
	out := make(map[string]uint64, int(numStriped)+1)
	for id := counterID(0); id < numStriped; id++ {
		out[counterKeys[id]] = s.stripes[i].load(id)
	}
	out[counterKeys[cElisionAttempts]] = s.stripes[i].load(cElisionAttempts)
	return out
}

// SharedSnapshot returns the shared counter block, keyed as Snapshot; its
// elisionAttempts is the external-Add slot alone (the derived part is
// per stripe).
func (s *Stats) SharedSnapshot() map[string]uint64 {
	out := make(map[string]uint64, int(numShared))
	for id := numStriped; id < numCounters; id++ {
		out[counterKeys[id]] = s.shared[id-numStriped].Load()
	}
	return out
}

// StripeTotals returns the total event count recorded in each stripe (the
// sum of its StripeSnapshot) — a quick occupancy view of how thread ids
// spread over stripes. Shared counters are not in any stripe's total.
func (s *Stats) StripeTotals() []uint64 {
	out := make([]uint64, len(s.stripes))
	for i := range s.stripes {
		var sum uint64
		for id := counterID(0); id < numStriped; id++ {
			sum += s.stripes[i].load(id)
		}
		out[i] = sum + s.stripes[i].load(cElisionAttempts)
	}
	return out
}
