// Package metrics is the observability registry for the SOLERO lock: latency
// histograms for the protocol's slow paths, an abort-cause taxonomy for
// failed speculations, and sampled call-site attribution — the "how long"
// and "why" companions to internal/stats's "how often" counters.
//
// The registry obeys the same discipline PR 1 established for the counters:
// nothing here may put a shared write back on the write-free read fast path.
// Every hot-path structure is striped across cache-line-padded slots indexed
// by the calling thread's precomputed stripe (jthread.Thread.StripeIndex),
// histograms are recorded only on slow paths or behind a sampling gate whose
// counter lives on the thread itself (jthread.Thread.SampleTick), and a nil
// *Registry degenerates every hook in internal/core to one predictable
// branch.
package metrics

import (
	"time"

	"repro/internal/stats"
)

// AbortCause classifies why a speculative read-only execution was aborted or
// never attempted — the taxonomy behind the paper's aggregate failure ratio
// (Figure 15). Recorded exactly once per failed or preempted elision.
type AbortCause uint8

// Abort causes.
const (
	// AbortWriterRaced: the word was free at validation but its counter had
	// advanced — a writing section completed inside the speculation window.
	AbortWriterRaced AbortCause = iota
	// AbortLockBitSet: the word was held (lock bit set) when the section
	// tried to validate or enter — a writer was mid-flight.
	AbortLockBitSet
	// AbortInflated: the lock was (or became) fat; elision is impossible
	// against an inflated word.
	AbortInflated
	// AbortRecursionOverflow: a reentrant read-only entry saturated the
	// flat recursion bits and forced inflation.
	AbortRecursionOverflow
	// AbortAsync: an asynchronous checkpoint validation (jthread.Checkpoint)
	// aborted the speculation from inside the section body.
	AbortAsync

	// The remaining causes are contention events rather than failed
	// speculations: the park and stall kinds of the wait seam (EndWait),
	// so the taxonomy attributes *where lock time goes* uniformly across
	// locks, not just why elision failed.

	// AbortGatePark: a reader or writer parked on the rwlock gate
	// (internal/rwlock.park) waiting for the state word to clear.
	AbortGatePark
	// AbortMonitorPark: a thread parked on a flat-lock-contention monitor
	// waiting for the flat owner to exit, or waited to enter a fat lock's
	// monitor (internal/core, internal/vmlock).
	AbortMonitorPark
	// AbortSweepStall: a monitor-table deflation sweep pass skipped busy or
	// pinned entries (internal/montable.Sweep) — reclaim was stalled by live
	// lock traffic; the dwell is that pass's wall-clock latency.
	AbortSweepStall

	// NumAbortCauses is the taxonomy's cardinality.
	NumAbortCauses
)

var abortCauseNames = [NumAbortCauses]string{
	AbortWriterRaced:       "writer-raced",
	AbortLockBitSet:        "lockbit-set",
	AbortInflated:          "inflated",
	AbortRecursionOverflow: "recursion-overflow",
	AbortAsync:             "async-abort",
	AbortGatePark:          "gate-park",
	AbortMonitorPark:       "monitor-park",
	AbortSweepStall:        "sweep-stall",
}

// String names the cause as exported (Prometheus label values, JSON keys).
func (c AbortCause) String() string {
	if c < NumAbortCauses {
		return abortCauseNames[c]
	}
	return "cause(?)"
}

// Histogram registry names (Name() of the corresponding field).
const (
	HistCSDuration = "cs_duration"
	HistAcquire    = "acquire_wait"
	HistSpin       = "spin_dwell"
	HistYield      = "yield_dwell"
	HistPark       = "park_dwell"
	HistSweep      = "sweep_latency"
)

// DefaultSamplePeriod is the default success-path sampling period: one in
// every DefaultSamplePeriod read-only sections is timed. Must be a power of
// two so the gate is a mask test on a thread-local counter.
const DefaultSamplePeriod = 64

// sampleStripe pads the per-stripe site-sampling counter onto its own range.
type sampleStripe struct {
	ctr stats.PaddedCounter
}

// Registry aggregates one configuration's observability state. Share one
// Registry across the locks of a workload (wire it through core.Config);
// snapshots merge stripes on read. A nil *Registry is a no-op at every
// method, so production configs pay one branch per hook.
type Registry struct {
	// CSDuration is the sampled wall-clock duration of read-only critical
	// sections, entry to consistent exit (includes retries).
	CSDuration *Histogram
	// Acquire is the writing-path slow acquire latency (solero_slow_enter
	// entry to ownership).
	Acquire *Histogram
	// Spin, Yield, Park are the three contention-management tiers' dwell
	// times: one spin episode, one yield, one FLC, monitor-entry or gate
	// park. Every wait reaches them through EndWait.
	Spin  *Histogram
	Yield *Histogram
	Park  *Histogram
	// Sweep is the wall-clock latency of one full monitor-table deflation
	// sweep (internal/montable), all shards.
	Sweep *Histogram

	aborts   [NumAbortCauses]*stats.Striped
	ops      *stats.Striped
	factDivs *stats.Striped
	samples  []sampleStripe
	mask     uint32

	samplePeriodMask uint32
	sitePeriodMask   uint64
	sites            *siteTable
}

// New creates a registry with nstripes stripes (rounded up to a power of
// two; n <= 0 selects stats.DefaultStripeCount).
func New(nstripes int) *Registry {
	if nstripes <= 0 {
		nstripes = stats.DefaultStripeCount()
	}
	nstripes = stats.CeilPow2(nstripes)
	r := &Registry{
		CSDuration:       newHistogram(HistCSDuration, nstripes),
		Acquire:          newHistogram(HistAcquire, nstripes),
		Spin:             newHistogram(HistSpin, nstripes),
		Yield:            newHistogram(HistYield, nstripes),
		Park:             newHistogram(HistPark, nstripes),
		Sweep:            newHistogram(HistSweep, nstripes),
		ops:              stats.NewStriped(nstripes),
		factDivs:         stats.NewStriped(nstripes),
		samples:          make([]sampleStripe, nstripes),
		mask:             uint32(nstripes - 1),
		samplePeriodMask: DefaultSamplePeriod - 1,
		sitePeriodMask:   defaultSitePeriod - 1,
		sites:            newSiteTable(),
	}
	for c := AbortCause(0); c < NumAbortCauses; c++ {
		r.aborts[c] = stats.NewStriped(nstripes)
	}
	return r
}

// SetSamplePeriod sets the success-path sampling period (rounded up to a
// power of two, minimum 1 = every section). Call before the registry is in
// use; the gate is read without synchronization.
func (r *Registry) SetSamplePeriod(n int) {
	if n < 1 {
		n = 1
	}
	r.samplePeriodMask = uint32(stats.CeilPow2(n)) - 1
}

// SetSitePeriod sets the sampled call-site attribution period (rounded up
// to a power of two, minimum 1 = every event). Call before the registry is
// in use; the gate is read without synchronization.
func (r *Registry) SetSitePeriod(n int) {
	if n < 1 {
		n = 1
	}
	r.sitePeriodMask = uint64(stats.CeilPow2(n)) - 1
}

// NumStripes returns the stripe count (a power of two).
func (r *Registry) NumStripes() int { return int(r.mask) + 1 }

// CSSampleMask returns the success-path sampling mask (period minus one) for
// the thread-local gate: the read section tests
// jthread.Thread.SampleTick(mask) at entry and, when selected, times itself
// and hands the duration to EndCS. Keeping the gate's counter on the thread
// rather than in the registry means the elided fast path touches no memory
// beyond the Thread it already holds to decide whether to sample.
func (r *Registry) CSSampleMask() uint32 { return r.samplePeriodMask }

// EndCS records a sampled section's duration from its start, a Now
// reading. Call only on sampled sections (the registry is necessarily
// non-nil then).
func (r *Registry) EndCS(stripe uint32, start int64) {
	r.CSDuration.Record(stripe, Now()-start)
}

// epoch is the origin of Now.
var epoch = time.Now()

// Now returns monotonic nanoseconds since the process's epoch, for dwell
// and section timings: the difference of two readings is a duration in
// nanoseconds. It reads the clock once: time.Now also reads the wall
// clock, which on linux/amd64 is a second vDSO call.
func Now() int64 { return int64(time.Since(epoch)) }

// RecordAbort accounts one aborted/preempted elision under cause, and — on
// a sampled subset — attributes it to the calling lock site via
// runtime.Callers. nil-safe.
func (r *Registry) RecordAbort(stripe uint32, cause AbortCause) {
	if r == nil {
		return
	}
	if cause >= NumAbortCauses {
		cause = AbortWriterRaced
	}
	r.aborts[cause].Add(stripe, 1)
	if r.samples[stripe&r.mask].ctr.Inc()&r.sitePeriodMask == 0 {
		r.sites.record(cause, 0)
	}
}

// WaitKind names one timed wait for the wait seam (StartWait/EndWait).
// Each kind records into one histogram; the park and stall kinds are also
// contention events, counted once in the taxonomy and sampled to their call
// site weighted by dwell.
type WaitKind uint8

// Wait kinds.
const (
	// WaitAcquire: one contended acquisition, first stall to ownership
	// (acquire_wait). It may contain several spins, yields and parks.
	WaitAcquire WaitKind = iota
	// WaitSpin: one spin episode of the three-tier loop (spin_dwell).
	WaitSpin
	// WaitYield: one tier-3 yield (yield_dwell).
	WaitYield
	// WaitMonitorPark: one FLC park or monitor entry (park_dwell, cause
	// monitor-park).
	WaitMonitorPark
	// WaitGatePark: one rwlock gate park (park_dwell, cause gate-park).
	WaitGatePark
	// WaitSweepStall: one monitor-table sweep pass that live lock traffic
	// kept from reclaiming (sweep_latency, cause sweep-stall).
	WaitSweepStall
)

// StartWait opens a timed wait: a Now reading on a registry, 0 on nil.
// It stays inlinable, so an unmetered lock pays one branch and reads no
// clock.
func (r *Registry) StartWait() int64 {
	if r == nil {
		return 0
	}
	return Now()
}

// EndWait closes the wait of the given kind opened at start (a StartWait
// reading) and records it exactly once. nil-safe, and inlinable down to
// the nil check.
func (r *Registry) EndWait(stripe uint32, kind WaitKind, start int64) {
	if r == nil {
		return
	}
	r.endWait(stripe, kind, start)
}

// endWait records the wait opened at start into its kind's histogram and,
// for the park and stall kinds, into the taxonomy and the sampled site
// table.
func (r *Registry) endWait(stripe uint32, kind WaitKind, start int64) {
	d := Now() - start
	if d < 0 {
		d = 0
	}
	var cause AbortCause
	switch kind {
	case WaitAcquire:
		r.Acquire.Record(stripe, d)
		return
	case WaitSpin:
		r.Spin.Record(stripe, d)
		return
	case WaitYield:
		r.Yield.Record(stripe, d)
		return
	case WaitMonitorPark:
		r.Park.Record(stripe, d)
		cause = AbortMonitorPark
	case WaitGatePark:
		r.Park.Record(stripe, d)
		cause = AbortGatePark
	case WaitSweepStall:
		r.Sweep.Record(stripe, d)
		cause = AbortSweepStall
	default:
		return
	}
	r.aborts[cause].Add(stripe, 1)
	if r.samples[stripe&r.mask].ctr.Inc()&r.sitePeriodMask == 0 {
		r.sites.record(cause, uint64(d))
	}
}

// AbortCount returns the merged count for one cause. nil-safe.
func (r *Registry) AbortCount(cause AbortCause) uint64 {
	if r == nil || cause >= NumAbortCauses {
		return 0
	}
	return r.aborts[cause].Load()
}

// AbortCounts returns the merged taxonomy keyed by cause name. nil-safe.
func (r *Registry) AbortCounts() map[string]uint64 {
	out := make(map[string]uint64, int(NumAbortCauses))
	for c := AbortCause(0); c < NumAbortCauses; c++ {
		var n uint64
		if r != nil {
			n = r.aborts[c].Load()
		}
		out[c.String()] = n
	}
	return out
}

// RecordFactDivergence accounts one trust-but-verify disagreement: a
// statically proven section whose dynamic classification probe contradicted
// the carried proof (see core.SectionRegistry). Latched once per section by
// the caller, so the counter reads as "number of wrong facts observed".
// nil-safe.
func (r *Registry) RecordFactDivergence(stripe uint32) {
	if r == nil {
		return
	}
	r.factDivs.Add(stripe, 1)
}

// FactDivergences returns the merged trust-but-verify disagreement count.
// nil-safe.
func (r *Registry) FactDivergences() uint64 {
	if r == nil {
		return 0
	}
	return r.factDivs.Load()
}

// AddOps accounts completed benchmark operations on the caller's stripe —
// the live-throughput counter behind `lockstats -serve`. nil-safe.
func (r *Registry) AddOps(stripe uint32, n uint64) {
	if r == nil {
		return
	}
	r.ops.Add(stripe, n)
}

// Ops returns the merged operation count. nil-safe.
func (r *Registry) Ops() uint64 {
	if r == nil {
		return 0
	}
	return r.ops.Load()
}

// Histograms returns the registry's histograms in a fixed export order.
// nil-safe: returns nil.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	return []*Histogram{r.CSDuration, r.Acquire, r.Spin, r.Yield, r.Park, r.Sweep}
}

// RecordSweep records the wall-clock duration of one monitor-table sweep
// pass that stalled on nothing; a stalled pass is a WaitSweepStall wait and
// records through EndWait instead, so each pass lands in sweep_latency
// once. Sweeps run off the lock paths, so there is no sampling gate.
// nil-safe.
func (r *Registry) RecordSweep(stripe uint64, d time.Duration) {
	if r == nil {
		return
	}
	r.Sweep.Record(uint32(stripe)&r.mask, int64(d))
}
