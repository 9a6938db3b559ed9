package export

import (
	"encoding/json"

	"repro/internal/metrics"
)

// SnapshotSchema versions the JSON snapshot layout. Consumers should reject
// bundles whose schema string they do not recognize; additive changes keep
// the suffix, breaking changes bump it.
const SnapshotSchema = "solero-snapshot/v1"

// HistogramStats is the exported summary of one latency histogram.
type HistogramStats struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  uint64  `json:"p50_ns"`
	P90Ns  uint64  `json:"p90_ns"`
	P99Ns  uint64  `json:"p99_ns"`
	MaxNs  uint64  `json:"max_ns"`
}

// AbortSite is the exported form of one sampled abort call site.
type AbortSite struct {
	Function string `json:"function"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	// SampledTotal is the number of *sampled* aborts attributed to the
	// site; multiply by sample_period for an estimate of real aborts.
	SampledTotal uint64 `json:"sampled_total"`
	TopCause     string `json:"top_cause"`
}

// Bundle is the stable JSON snapshot shared by `lockstats -json`,
// `lockstats -serve`'s /snapshot.json, and `solerobench -json`.
type Bundle struct {
	Schema    string `json:"schema"`
	Benchmark string `json:"benchmark"`
	Threads   int    `json:"threads"`
	// OpsPerSec is the measured throughput: harness-measured for one-shot
	// runs, cumulative-ops-over-uptime for the live endpoint.
	OpsPerSec float64 `json:"ops_per_sec"`
	Ops       uint64  `json:"ops"`
	// FailureRatioPct is ElisionFailures/ElisionAttempts in percent.
	FailureRatioPct float64 `json:"failure_ratio_pct"`
	// Counters is the aggregated protocol counter block, keys unchanged
	// from core.Stats.Snapshot (elisionSuccesses, fallbacks, inflations…).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// AbortCauses is the taxonomy, keyed by cause name.
	AbortCauses map[string]uint64 `json:"abort_causes"`
	// Histograms summarizes each registry histogram, keyed by registry
	// name (cs_duration, acquire_wait, spin_dwell, yield_dwell, park_dwell).
	Histograms map[string]HistogramStats `json:"histograms"`
	// AbortSites ranks the sampled abort call sites, most-hit first.
	AbortSites       []AbortSite `json:"abort_sites,omitempty"`
	SiteSamplePeriod uint64      `json:"site_sample_period,omitempty"`
	// TraceRecorded/TraceDropped describe the protocol event log: events
	// recorded over the run and how many its bounded tail has dropped.
	TraceRecorded uint64 `json:"trace_recorded,omitempty"`
	TraceDropped  uint64 `json:"trace_dropped,omitempty"`
}

// histogramStats summarizes one histogram snapshot.
func histogramStats(h *metrics.Histogram) HistogramStats {
	s := h.Snapshot()
	return HistogramStats{
		Count:  s.Count,
		MeanNs: s.Mean(),
		P50Ns:  s.Quantile(0.50),
		P90Ns:  s.Quantile(0.90),
		P99Ns:  s.Quantile(0.99),
		MaxNs:  s.Max,
	}
}

// Bundle assembles the current snapshot. opsPerSec <= 0 derives throughput
// from the registry's cumulative ops over the source uptime (the live-serve
// case); pass the harness's measured value for one-shot runs.
func (s *Source) Bundle(opsPerSec float64) *Bundle {
	b := &Bundle{
		Schema:      SnapshotSchema,
		Benchmark:   s.Benchmark,
		Threads:     s.Threads,
		OpsPerSec:   opsPerSec,
		Ops:         s.Registry.Ops(),
		AbortCauses: s.Registry.AbortCounts(),
		Histograms:  make(map[string]HistogramStats),
	}
	if opsPerSec <= 0 {
		if up := s.Uptime().Seconds(); up > 0 {
			b.OpsPerSec = float64(b.Ops) / up
		}
	}
	if s.Counters != nil {
		b.Counters = s.Counters()
	}
	if s.FailureRatio != nil {
		b.FailureRatioPct = s.FailureRatio()
	}
	for _, h := range s.Registry.Histograms() {
		if h != nil {
			b.Histograms[h.Name()] = histogramStats(h)
		}
	}
	for _, site := range s.Registry.Sites() {
		b.AbortSites = append(b.AbortSites, AbortSite{
			Function:     site.Function,
			File:         site.File,
			Line:         site.Line,
			SampledTotal: site.Total,
			TopCause:     site.TopCause().String(),
		})
	}
	if len(b.AbortSites) > 0 {
		b.SiteSamplePeriod = s.Registry.SiteSamplePeriod()
	}
	if s.History != nil {
		b.TraceRecorded = uint64(s.History.Len())
		b.TraceDropped = uint64(s.History.Dropped())
	}
	return b
}

// MarshalIndent renders the bundle as indented JSON.
func (b *Bundle) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}
