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

import (
	"sync/atomic"

	"repro/internal/jthread"
	"repro/internal/stats"
)

// counterID indexes one protocol counter within a stripe.
type counterID uint8

// Counter ids, in the seed Stats block's declaration order (Snapshot's key
// space and newStats's field table follow this order).
const (
	cFastAcquires counterID = iota
	cSlowAcquires
	cRecursions
	cSpinAcquires
	cFLCWaits
	cInflations
	cDeflations
	cFatEnters
	cElisionAttempts
	cElisionSuccesses
	cElisionFailures
	cFallbacks
	cReadRecursions
	cReadFatEnters
	cSuppressedFaults
	cGenuineFaults
	cAsyncAborts
	cUpgrades
	cUpgradeFailures
	cAdaptiveTrips
	cAdaptiveSkips

	numCounters
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

// stripePad rounds statStripe up to a multiple of the false-sharing range
// so stripes written by different threads never share a line.
const (
	stripeRawBytes = 8*int(numCounters) + 8 // counters + adaptive window pair
	stripePad      = (stats.FalseSharingRange - stripeRawBytes%stats.FalseSharingRange) % stats.FalseSharingRange
)

// statStripe is one thread-stripe's counter block. The adaptive-elision
// window bookkeeping (see adaptive.go) rides in the same stripe: it is
// written on every speculative execution, so it must be just as private to
// the stripe as the event counters.
type statStripe struct {
	c [numCounters]atomic.Uint64

	// adAttempts/adFailures are this stripe's slice of the adaptive
	// sampling window (adaptive.go).
	adAttempts atomic.Uint32
	adFailures atomic.Uint32

	_ [stripePad]byte
}

// inc bumps one counter in this stripe.
func (sp *statStripe) inc(id counterID) { sp.c[id].Add(1) }

// attemptOutcomes are the terminal outcomes of a speculative execution:
// each one ends in exactly one of them, so ElisionAttempts is their sum
// rather than a counter the read path pays a second increment for.
var attemptOutcomes = [...]counterID{
	cElisionSuccesses, cElisionFailures, cGenuineFaults, cUpgrades, cUpgradeFailures,
}

// load reads one counter of this stripe, deriving ElisionAttempts from the
// terminal outcomes (its own slot holds only external Add adjustments).
func (sp *statStripe) load(id counterID) uint64 {
	n := sp.c[id].Load()
	if id == cElisionAttempts {
		for _, o := range attemptOutcomes {
			n += sp.c[o].Load()
		}
	}
	return n
}

// Stats counts SOLERO protocol events. Counters are sharded across
// cache-line-padded stripes indexed by thread id — hot-path increments from
// different threads touch disjoint lines — and each exported Counter
// aggregates its stripes on Load. The elision counters feed the paper's
// Figure 15 failure-ratio experiment.
type Stats struct {
	stripes []statStripe
	mask    uint32

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
// owning Stats block's stripes. Copying a Counter is cheap and safe.
type Counter struct {
	stripes []statStripe
	id      counterID
}

// Load returns the counter's total across all stripes.
func (c Counter) Load() uint64 {
	var sum uint64
	for i := range c.stripes {
		sum += c.stripes[i].load(c.id)
	}
	return sum
}

// Add adds n on the first stripe — for external accounting that has no
// thread at hand. Hot paths inside the package increment the calling
// thread's stripe instead.
func (c Counter) Add(n uint64) { c.stripes[0].c[c.id].Add(n) }

// newStats builds a Stats block with nstripes stripes (a power of two).
func newStats(nstripes int) *Stats {
	s := &Stats{stripes: make([]statStripe, nstripes), mask: uint32(nstripes - 1)}
	for id, f := range []*Counter{
		&s.FastAcquires, &s.SlowAcquires, &s.Recursions, &s.SpinAcquires,
		&s.FLCWaits, &s.Inflations, &s.Deflations, &s.FatEnters,
		&s.ElisionAttempts, &s.ElisionSuccesses, &s.ElisionFailures,
		&s.Fallbacks, &s.ReadRecursions, &s.ReadFatEnters,
		&s.SuppressedFaults, &s.GenuineFaults, &s.AsyncAborts,
		&s.Upgrades, &s.UpgradeFailures, &s.AdaptiveTrips, &s.AdaptiveSkips,
	} {
		*f = Counter{stripes: s.stripes, id: counterID(id)}
	}
	return s
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

// Snapshot returns a plain-value copy of all counters, aggregated across
// stripes. Keys are unchanged from the seed implementation.
func (s *Stats) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, int(numCounters))
	for id := counterID(0); id < numCounters; id++ {
		out[counterKeys[id]] = Counter{stripes: s.stripes, id: id}.Load()
	}
	return out
}

// NumStripes returns the stripe count (a power of two; 1 reproduces the
// seed's shared-counter layout).
func (s *Stats) NumStripes() int { return len(s.stripes) }

// StripeSnapshot returns stripe i's un-aggregated counter block, keyed as
// Snapshot. lockstats -stripes prints these so skew across thread ids is
// visible.
func (s *Stats) StripeSnapshot(i int) map[string]uint64 {
	out := make(map[string]uint64, int(numCounters))
	for id := counterID(0); id < numCounters; id++ {
		out[counterKeys[id]] = s.stripes[i].load(id)
	}
	return out
}

// StripeTotals returns the total event count recorded in each stripe — a
// quick occupancy view of how thread ids spread over stripes.
func (s *Stats) StripeTotals() []uint64 {
	out := make([]uint64, len(s.stripes))
	for i := range s.stripes {
		var sum uint64
		for id := counterID(0); id < numCounters; id++ {
			sum += s.stripes[i].load(id)
		}
		out[i] = sum
	}
	return out
}
