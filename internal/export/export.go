// Package export turns the observability state of a SOLERO run — the
// protocol counter block (internal/core), the metrics registry
// (internal/metrics), and the protocol event log (internal/history) — into
// three interchange formats:
//
//   - Prometheus text exposition (v0.0.4) plus expvar, served live by
//     `lockstats -serve :PORT`;
//   - Chrome trace-event JSON loadable in Perfetto / chrome://tracing,
//     written by `lockstats -perfetto out.json`;
//   - a stable JSON snapshot schema (Bundle, "solero-snapshot/v1") shared
//     by `lockstats -json` and `solerobench -json`.
//
// The exporters only *read* striped state — every merge happens here, at
// export time, never on the lock's paths.
package export

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/history"
	"repro/internal/metrics"
)

// Source bundles everything exportable about one running (or finished)
// benchmark. The funcs are called at export time, so a long-lived Source —
// the `lockstats -serve` endpoint holds one — always serves fresh state.
// Nil fields are simply omitted from the output.
type Source struct {
	// Benchmark and Threads identify the run; Backend names the lock
	// backend under test (stamped into Perfetto process metadata when
	// set).
	Benchmark string
	Backend   string
	Threads   int
	// Registry is the metrics registry wired through core.Config.Metrics.
	Registry *metrics.Registry
	// Counters snapshots the aggregated protocol counter block
	// (core.Stats.Snapshot, merged over the benchmark's locks).
	Counters func() map[string]uint64
	// FailureRatio returns the aggregate elision failure ratio in percent.
	FailureRatio func() float64
	// History is the protocol event log wired through core.Config.History
	// (a history.NewTail recorder for a long run), if one was configured.
	History *history.Recorder

	start time.Time
}

// NewSource creates a Source whose uptime clock starts now.
func NewSource(benchmark string, threads int, reg *metrics.Registry) *Source {
	return &Source{Benchmark: benchmark, Threads: threads, Registry: reg, start: time.Now()}
}

// Uptime returns how long the source has been live (0 for a Source built
// without NewSource — e.g. a one-shot export of a finished run).
func (s *Source) Uptime() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	return time.Since(s.start)
}

// MergeCounters sums counter maps key-wise — the aggregation both CLIs use
// to fold per-lock core.Stats snapshots into one protocol counter block.
func MergeCounters(ms ...map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// promBounds is the histogram bucket ladder exposed to Prometheus. Every
// bound has the form 2^k-1, which aligns exactly with the log-linear
// buckets' octave boundaries (BucketUpper of each octave's last sub-bucket),
// so CumulativeLE is exact — no samples are smeared across `le` bounds.
var promBounds = []uint64{
	255,       // 2^8-1  ns
	1<<10 - 1, // ~1us
	1<<12 - 1, // ~4us
	1<<14 - 1, // ~16us
	1<<16 - 1, // ~65us
	1<<18 - 1, // ~262us
	1<<20 - 1, // ~1ms
	1<<22 - 1, // ~4ms
	1<<24 - 1, // ~16ms
	1<<26 - 1, // ~67ms
	1<<28 - 1, // ~268ms
	1<<30 - 1, // ~1.07s
}

// camelToSnake converts the counter block's camelCase keys ("elisionFailures")
// to Prometheus label values ("elision_failures").
func camelToSnake(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Prometheus writes the text exposition (v0.0.4) of the source: the ops
// counter, the abort taxonomy, the protocol event counters, and one
// histogram family per registry histogram. Deterministic for fixed inputs
// (keys are sorted), so the format is golden-testable.
func (s *Source) Prometheus(w io.Writer) error {
	reg := s.Registry

	fmt.Fprintf(w, "# HELP solero_ops_total Completed benchmark operations.\n")
	fmt.Fprintf(w, "# TYPE solero_ops_total counter\n")
	fmt.Fprintf(w, "solero_ops_total %d\n", reg.Ops())

	fmt.Fprintf(w, "# HELP solero_aborts_total Failed or preempted elisions by cause.\n")
	fmt.Fprintf(w, "# TYPE solero_aborts_total counter\n")
	aborts := reg.AbortCounts()
	causes := make([]string, 0, len(aborts))
	for c := range aborts {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		fmt.Fprintf(w, "solero_aborts_total{cause=%q} %d\n", c, aborts[c])
	}

	if s.Counters != nil {
		counters := s.Counters()
		keys := make([]string, 0, len(counters))
		for k := range counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "# HELP solero_protocol_events_total SOLERO protocol event counters.\n")
		fmt.Fprintf(w, "# TYPE solero_protocol_events_total counter\n")
		for _, k := range keys {
			fmt.Fprintf(w, "solero_protocol_events_total{event=%q} %d\n", camelToSnake(k), counters[k])
		}
	}

	fmt.Fprintf(w, "# HELP solero_fact_divergences_total Trust-but-verify disagreements: sections whose carried proof the dynamic classifier contradicted.\n")
	fmt.Fprintf(w, "# TYPE solero_fact_divergences_total counter\n")
	fmt.Fprintf(w, "solero_fact_divergences_total %d\n", reg.FactDivergences())

	if s.History != nil {
		fmt.Fprintf(w, "# HELP solero_trace_events_dropped_total Protocol log events dropped from its bounded tail.\n")
		fmt.Fprintf(w, "# TYPE solero_trace_events_dropped_total counter\n")
		fmt.Fprintf(w, "solero_trace_events_dropped_total %d\n", s.History.Dropped())
	}

	for _, h := range reg.Histograms() {
		if h == nil {
			continue
		}
		name := "solero_" + h.Name() + "_nanoseconds"
		snap := h.Snapshot()
		fmt.Fprintf(w, "# HELP %s %s latency in nanoseconds.\n", name, h.Name())
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		for _, bound := range promBounds {
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bound, snap.CumulativeLE(bound))
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
		fmt.Fprintf(w, "%s_sum %d\n", name, snap.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
	}
	return nil
}
