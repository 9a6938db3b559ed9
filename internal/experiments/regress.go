package experiments

// Bench-trajectory regression analysis: the BENCH_<date>.json records that
// `make bench-record` commits at the repo root form a perf trajectory, and
// this file turns that trajectory into a CI gate. The latest record is
// compared against its predecessor per (workload, backend, threads); a
// throughput drop or p99 latency rise beyond the noise tolerance is a
// regression. Records stamped (or derived) lowParallelism are reported but
// never gated on — a GOMAXPROCS=1 container measures scheduler fairness,
// not lock scaling, and must not fail CI for a lock it never contended.
// Nor is a pair taken under different fence models (Arch): a record with
// simulated Power charges and a native one measure different locks.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// DefaultRegressTolerance is the fractional noise band: deltas within
// ±10% are treated as run-to-run noise on CI-class machines.
const DefaultRegressTolerance = 0.10

// RegressSchema identifies the JSON trajectory report format.
const RegressSchema = "solero-regress/v1"

// TrajectoryRecord is one loaded BENCH_<date>.json file.
type TrajectoryRecord struct {
	File string
	Rec  *TournamentResult
}

// LoadTrajectory reads every BENCH_*.json in dir, rejecting files whose
// schema is not a solero-bench generation (v1 and v2 records coexist in a
// trajectory), and returns them sorted by filename — BENCH_<ISO-date>.json
// names sort chronologically.
func LoadTrajectory(dir string) ([]TrajectoryRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var records []TrajectoryRecord
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		rec := &TournamentResult{}
		if err := json.Unmarshal(data, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !strings.HasPrefix(rec.Schema, "solero-bench/") {
			return nil, fmt.Errorf("%s: unknown schema %q (want solero-bench/*)", p, rec.Schema)
		}
		records = append(records, TrajectoryRecord{File: filepath.Base(p), Rec: rec})
	}
	return records, nil
}

// recordLowParallelism reports whether a record must be excluded from
// gating: either explicitly stamped (v2) or derived from its environment
// facts (v1 records predate the stamp).
func recordLowParallelism(r *TournamentResult) bool {
	if r.LowParallelism {
		return true
	}
	if r.GoMaxProcs <= 0 {
		return false
	}
	for _, w := range r.Workloads {
		for _, n := range w.Threads {
			if n > r.GoMaxProcs {
				return true
			}
		}
	}
	return false
}

// RegressDelta is one (workload, backend, threads) comparison between the
// head record and its predecessor.
type RegressDelta struct {
	Workload string `json:"workload"`
	Backend  string `json:"backend"`
	Threads  int    `json:"threads"`
	// Throughput, ops/sec; OpsDelta is fractional ((head-base)/base).
	BaseOps  float64 `json:"baseOps"`
	HeadOps  float64 `json:"headOps"`
	OpsDelta float64 `json:"opsDelta"`
	// p99 operation latency, nanoseconds; zero when either record lacks
	// latency data (v1), in which case P99Delta is not evaluated.
	BaseP99Ns int64   `json:"baseP99Ns,omitempty"`
	HeadP99Ns int64   `json:"headP99Ns,omitempty"`
	P99Delta  float64 `json:"p99Delta,omitempty"`
	Regressed bool    `json:"regressed"`
	Reason    string  `json:"reason,omitempty"`
}

// RegressReport is the trajectory comparison rendered by Markdown() and
// serialized as the JSON report.
type RegressReport struct {
	Schema    string  `json:"schema"`
	BaseFile  string  `json:"baseFile,omitempty"`
	HeadFile  string  `json:"headFile,omitempty"`
	BaseDate  string  `json:"baseDate,omitempty"`
	HeadDate  string  `json:"headDate,omitempty"`
	Tolerance float64 `json:"tolerance"`
	// Gating is false when either compared record is lowParallelism, when
	// the two were taken under different fence models (Arch), or when
	// there is nothing to compare: regressions are then informational.
	Gating      bool           `json:"gating"`
	Regressions int            `json:"regressions"`
	Deltas      []RegressDelta `json:"deltas,omitempty"`
	Notes       []string       `json:"notes,omitempty"`
}

// Failed reports whether the gate should fail CI.
func (r *RegressReport) Failed() bool { return r.Gating && r.Regressions > 0 }

// seriesPoint finds the throughput and p99 for one (workload, backend,
// threads) triple; ok is false when the record has no such point.
func seriesPoint(rec *TournamentResult, workload, backend string, threads int) (ops float64, p99 int64, ok bool) {
	for _, w := range rec.Workloads {
		if w.Name != workload {
			continue
		}
		ti := -1
		for i, n := range w.Threads {
			if n == threads {
				ti = i
				break
			}
		}
		if ti < 0 {
			return 0, 0, false
		}
		for _, s := range w.Series {
			if s.Backend != backend {
				continue
			}
			if ti >= len(s.OpsPerSec) {
				return 0, 0, false
			}
			if ti < len(s.Latency) {
				p99 = s.Latency[ti].P99Ns
			}
			return s.OpsPerSec[ti], p99, true
		}
	}
	return 0, 0, false
}

// Regress compares the most recent record in the trajectory against its
// predecessor. tolerance <= 0 selects DefaultRegressTolerance.
func Regress(records []TrajectoryRecord, tolerance float64) *RegressReport {
	if tolerance <= 0 {
		tolerance = DefaultRegressTolerance
	}
	rep := &RegressReport{Schema: RegressSchema, Tolerance: tolerance}
	if len(records) == 0 {
		rep.Notes = append(rep.Notes, "no BENCH_*.json records found; nothing to gate")
		return rep
	}
	if len(records) == 1 {
		rep.HeadFile = records[0].File
		rep.HeadDate = records[0].Rec.Date
		rep.Notes = append(rep.Notes, "single record; no predecessor to compare against")
		if recordLowParallelism(records[0].Rec) {
			rep.Notes = append(rep.Notes, lowParallelismNote(records[0]))
		}
		return rep
	}
	head, base := records[len(records)-1], records[len(records)-2]
	rep.HeadFile, rep.HeadDate = head.File, head.Rec.Date
	rep.BaseFile, rep.BaseDate = base.File, base.Rec.Date
	rep.Gating = true
	for _, r := range []TrajectoryRecord{base, head} {
		if recordLowParallelism(r.Rec) {
			rep.Gating = false
			rep.Notes = append(rep.Notes, lowParallelismNote(r))
		}
	}
	if base.Rec.Arch != head.Rec.Arch {
		rep.Gating = false
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s (arch=%q) and %s (arch=%q) were taken under different fence models: reported, not gated",
			base.File, base.Rec.Arch, head.File, head.Rec.Arch))
	}
	for _, w := range head.Rec.Workloads {
		for _, s := range w.Series {
			for _, n := range w.Threads {
				headOps, headP99, ok := seriesPoint(head.Rec, w.Name, s.Backend, n)
				if !ok {
					continue
				}
				baseOps, baseP99, ok := seriesPoint(base.Rec, w.Name, s.Backend, n)
				if !ok || baseOps <= 0 {
					rep.Notes = append(rep.Notes, fmt.Sprintf(
						"%s/%s/%d: no baseline point in %s", w.Name, s.Backend, n, base.File))
					continue
				}
				d := RegressDelta{
					Workload: w.Name, Backend: s.Backend, Threads: n,
					BaseOps: baseOps, HeadOps: headOps,
					OpsDelta:  (headOps - baseOps) / baseOps,
					BaseP99Ns: baseP99, HeadP99Ns: headP99,
				}
				if baseP99 > 0 && headP99 > 0 {
					d.P99Delta = float64(headP99-baseP99) / float64(baseP99)
				}
				var reasons []string
				if d.OpsDelta < -tolerance {
					reasons = append(reasons, fmt.Sprintf("throughput %.1f%% below baseline", -d.OpsDelta*100))
				}
				if baseP99 > 0 && headP99 > 0 && d.P99Delta > tolerance {
					reasons = append(reasons, fmt.Sprintf("p99 latency %.1f%% above baseline", d.P99Delta*100))
				}
				if len(reasons) > 0 {
					d.Regressed = true
					d.Reason = strings.Join(reasons, "; ")
					rep.Regressions++
				}
				rep.Deltas = append(rep.Deltas, d)
			}
		}
	}
	return rep
}

func lowParallelismNote(r TrajectoryRecord) string {
	return fmt.Sprintf("%s is a lowParallelism record (gomaxprocs=%d): reported, not gated",
		r.File, r.Rec.GoMaxProcs)
}

// Markdown renders the report as the trajectory table `solerobench
// -regress` prints and `make bench-gate` archives.
func (r *RegressReport) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Bench trajectory: %s vs %s\n\n", orNone(r.HeadFile), orNone(r.BaseFile))
	fmt.Fprintf(&b, "- tolerance: ±%.0f%%\n- gating: %v\n- regressions: %d\n",
		r.Tolerance*100, r.Gating, r.Regressions)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "- note: %s\n", n)
	}
	if len(r.Deltas) == 0 {
		return b.String()
	}
	b.WriteString("\n| workload | backend | threads | base ops/s | head ops/s | Δops | base p99 | head p99 | Δp99 | status |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, d := range r.Deltas {
		status := "ok"
		if d.Regressed {
			status = "**REGRESSED**: " + d.Reason
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %.0f | %.0f | %+.1f%% | %s | %s | %s | %s |\n",
			d.Workload, d.Backend, d.Threads, d.BaseOps, d.HeadOps, d.OpsDelta*100,
			nsOrDash(d.BaseP99Ns), nsOrDash(d.HeadP99Ns), deltaOrDash(d.BaseP99Ns, d.HeadP99Ns, d.P99Delta),
			status)
	}
	return b.String()
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func nsOrDash(ns int64) string {
	if ns == 0 {
		return "–"
	}
	return time.Duration(ns).String()
}

func deltaOrDash(base, head int64, delta float64) string {
	if base == 0 || head == 0 {
		return "–"
	}
	return fmt.Sprintf("%+.1f%%", delta*100)
}
