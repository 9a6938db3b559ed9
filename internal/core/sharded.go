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
	stripeRawBytes = 8*int(numStriped) + 8 // counters + adaptive window pair
	stripePad      = (stats.FalseSharingRange - stripeRawBytes%stats.FalseSharingRange) % stats.FalseSharingRange
)

// statStripe is one thread-stripe's counter block. The adaptive-elision
// window bookkeeping (see adaptive.go) rides in the same stripe: it is
// written on every speculative execution, so it must be just as private to
// the stripe as the event counters.
type statStripe struct {
	c [numStriped]atomic.Uint64

	// adAttempts/adFailures are this stripe's slice of the adaptive
	// sampling window (adaptive.go).
	adAttempts atomic.Uint32
	adFailures atomic.Uint32

	_ [stripePad]byte
}

// inc bumps one striped counter in this stripe.
func (sp *statStripe) inc(id counterID) { sp.c[id].Add(1) }

// attemptOutcomes are the terminal outcomes of a speculative execution:
// each one ends in exactly one of them, so ElisionAttempts is their sum
// rather than a counter the read path pays a second increment for.
var attemptOutcomes = [...]counterID{
	cElisionSuccesses, cElisionFailures, cGenuineFaults, cUpgrades, cUpgradeFailures,
}

// load reads one counter of this stripe: a striped slot, or for
// cElisionAttempts the stripe's terminal outcomes.
func (sp *statStripe) load(id counterID) uint64 {
	if id != cElisionAttempts {
		return sp.c[id].Load()
	}
	var n uint64
	for _, o := range attemptOutcomes {
		n += sp.c[o].Load()
	}
	return n
}

// Stats counts SOLERO protocol events. It is embedded in Lock, and its
// stripe header (stripes, mask) sits on the lock's first cache line beside
// the word, so a fast-path bump loads no line but its own stripe's. The
// striped counters are sharded across cache-line-sized stripes indexed by
// thread; the shared counters and the Counter views lie past that first
// line. Each exported Counter aggregates on Load. The elision counters feed
// the paper's Figure 15 failure-ratio experiment.
type Stats struct {
	stripes []statStripe
	mask    uint32
	// Lock's head precedes this Stats: the pad ends the lock's first line
	// after the stripe header.
	_ [stats.CacheLine - unsafe.Sizeof(lockHead{}) - unsafe.Sizeof([]statStripe(nil)) - unsafe.Sizeof(uint32(0))]byte

	shared [numShared]atomic.Uint64

	FastAcquires Counter // uncontended writing acquisitions
	SlowAcquires Counter
	Recursions   Counter
	SpinAcquires Counter
	FLCWaits     Counter
	Inflations   Counter
	Deflations   Counter
	FatEnters    Counter

	ElisionAttempts  Counter // speculative executions (derived, see attemptOutcomes)
	ElisionSuccesses Counter // validated unchanged at exit
	ElisionFailures  Counter // changed word, suppressed fault, or async abort
	Fallbacks        Counter // read sections re-run holding the lock
	ReadRecursions   Counter // read sections entered reentrantly
	ReadFatEnters    Counter // read sections run under the fat lock

	SuppressedFaults Counter // panics suppressed as inconsistent reads
	GenuineFaults    Counter // panics validated as genuine and rethrown
	AsyncAborts      Counter // speculations aborted at checkpoints

	Upgrades        Counter // read-mostly in-place upgrades
	UpgradeFailures Counter // upgrades that forced re-execution

	AdaptiveTrips Counter // adaptive backoffs triggered
	AdaptiveSkips Counter // read sections routed to the lock by backoff
}

// Counter is a read view of one aggregated protocol counter: Load sums the
// owning Stats block's stripes (or reads its shared slot). Copying a
// Counter is cheap and safe.
type Counter struct {
	s  *Stats
	id counterID
}

// Load returns the counter's total.
func (c Counter) Load() uint64 { return c.s.load(c.id) }

// Add adds n to the counter — for external accounting that has no thread
// at hand: a striped counter takes it on the first stripe. Hot paths
// inside the package increment the calling thread's stripe instead.
func (c Counter) Add(n uint64) {
	if c.id >= numStriped {
		c.s.shared[c.id-numStriped].Add(n)
		return
	}
	c.s.stripes[0].c[c.id].Add(n)
}

// init sets up s in place with nstripes stripes (a power of two). The
// Counter views point back at s, so a Stats must not be copied after init.
func (s *Stats) init(nstripes int) {
	s.stripes, s.mask = make([]statStripe, nstripes), uint32(nstripes-1)
	for id, f := range [numCounters]*Counter{
		cFastAcquires: &s.FastAcquires, cSlowAcquires: &s.SlowAcquires,
		cRecursions: &s.Recursions, cSpinAcquires: &s.SpinAcquires,
		cFLCWaits: &s.FLCWaits, cInflations: &s.Inflations,
		cDeflations: &s.Deflations, cFatEnters: &s.FatEnters,
		cElisionAttempts: &s.ElisionAttempts, cElisionSuccesses: &s.ElisionSuccesses,
		cElisionFailures: &s.ElisionFailures, cFallbacks: &s.Fallbacks,
		cReadRecursions: &s.ReadRecursions, cReadFatEnters: &s.ReadFatEnters,
		cSuppressedFaults: &s.SuppressedFaults, cGenuineFaults: &s.GenuineFaults,
		cAsyncAborts: &s.AsyncAborts, cUpgrades: &s.Upgrades,
		cUpgradeFailures: &s.UpgradeFailures, cAdaptiveTrips: &s.AdaptiveTrips,
		cAdaptiveSkips: &s.AdaptiveSkips,
	} {
		*f = Counter{s: s, id: counterID(id)}
	}
}

// stripeFor returns the calling thread's stripe.
func (s *Stats) stripeFor(t *jthread.Thread) *statStripe {
	return &s.stripes[t.StripeIndex()&s.mask]
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
