package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRegressCleanTrajectoryPasses(t *testing.T) {
	records, err := LoadTrajectory(filepath.Join("testdata", "regress", "clean"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("loaded %d records, want 2", len(records))
	}
	rep := Regress(records, 0)
	if !rep.Gating {
		t.Fatalf("identical gomaxprocs-8 records must gate: %+v", rep.Notes)
	}
	if rep.Failed() || rep.Regressions != 0 {
		t.Fatalf("zero-delta self-comparison regressed: %+v", rep.Deltas)
	}
	if len(rep.Deltas) != 8 {
		t.Fatalf("got %d deltas, want 8 (2 backends x 4 thread counts)", len(rep.Deltas))
	}
}

func TestRegressStepFails(t *testing.T) {
	records, err := LoadTrajectory(filepath.Join("testdata", "regress", "regressed"))
	if err != nil {
		t.Fatal(err)
	}
	rep := Regress(records, 0)
	if !rep.Failed() {
		t.Fatal("a -20% throughput step must fail the ±10% gate")
	}
	if rep.Regressions != 4 {
		t.Fatalf("got %d regressions, want 4 (solero at each thread count)", rep.Regressions)
	}
	for _, d := range rep.Deltas {
		if d.Backend == "solero" && !d.Regressed {
			t.Fatalf("solero delta not flagged: %+v", d)
		}
		if d.Backend == "rwlock" && d.Regressed {
			t.Fatalf("unchanged rwlock delta flagged: %+v", d)
		}
	}
	md := rep.Markdown()
	if !strings.Contains(md, "REGRESSED") || !strings.Contains(md, "throughput 20.0% below baseline") {
		t.Fatalf("markdown report missing regression callout:\n%s", md)
	}
}

func TestRegressP99Rise(t *testing.T) {
	base := &TournamentResult{
		Schema: TournamentSchema, GoMaxProcs: 8,
		Workloads: []TournamentWorkload{{
			Name: "read-only", Threads: []int{4},
			Series: []TournamentSeries{{
				Backend: "bravo", OpsPerSec: []float64{1e6},
				Latency: []LatencyStats{{Samples: 100, P99Ns: 1000}},
			}},
		}},
	}
	head := &TournamentResult{
		Schema: TournamentSchema, GoMaxProcs: 8,
		Workloads: []TournamentWorkload{{
			Name: "read-only", Threads: []int{4},
			Series: []TournamentSeries{{
				Backend: "bravo", OpsPerSec: []float64{1e6},
				Latency: []LatencyStats{{Samples: 100, P99Ns: 1500}},
			}},
		}},
	}
	rep := Regress([]TrajectoryRecord{
		{File: "BENCH_a.json", Rec: base},
		{File: "BENCH_b.json", Rec: head},
	}, 0)
	if !rep.Failed() {
		t.Fatal("a +50% p99 rise with flat throughput must fail the gate")
	}
	if !strings.Contains(rep.Deltas[0].Reason, "p99 latency") {
		t.Fatalf("reason should name p99 latency: %q", rep.Deltas[0].Reason)
	}
}

func TestRegressLowParallelismNeverGates(t *testing.T) {
	// A v1-style record with no explicit stamp but gomaxprocs below the
	// sweep's top thread count must be derived lowParallelism — the
	// committed cpus:1 container record must not gate a -20% delta.
	mk := func(ops float64) *TournamentResult {
		return &TournamentResult{
			Schema: "solero-bench/v1", GoMaxProcs: 1,
			Workloads: []TournamentWorkload{{
				Name: "read-only", Threads: []int{1, 8},
				Series: []TournamentSeries{{
					Backend: "vmlock", OpsPerSec: []float64{ops, ops},
				}},
			}},
		}
	}
	rep := Regress([]TrajectoryRecord{
		{File: "BENCH_a.json", Rec: mk(1e6)},
		{File: "BENCH_b.json", Rec: mk(0.5e6)},
	}, 0)
	if rep.Gating {
		t.Fatal("gomaxprocs=1 record with an 8-thread sweep must not gate")
	}
	if rep.Failed() {
		t.Fatal("informational report must never fail the gate")
	}
	if rep.Regressions == 0 {
		t.Fatal("the -50% delta should still be reported informationally")
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "lowParallelism") {
			found = true
		}
	}
	if !found {
		t.Fatalf("notes should explain the exclusion: %v", rep.Notes)
	}
}

func TestRegressArchMismatchNeverGates(t *testing.T) {
	// The seeded -20% step, but with the head record taken natively: a
	// Power-charged base and a native head measure different locks, so
	// the step is reported and never gated.
	records, err := LoadTrajectory(filepath.Join("testdata", "regress", "regressed"))
	if err != nil {
		t.Fatal(err)
	}
	head := *records[1].Rec
	if records[0].Rec.Arch != "power" || head.Arch != "power" {
		t.Fatalf("fixture arches %q/%q, want power/power", records[0].Rec.Arch, head.Arch)
	}
	head.Arch = NativeArch
	records[1].Rec = &head
	rep := Regress(records, 0)
	if rep.Gating || rep.Failed() {
		t.Fatal("a power/none pair must not gate")
	}
	if rep.Regressions != 4 {
		t.Fatalf("got %d regressions, want the 4 solero steps reported informationally", rep.Regressions)
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "different fence models") {
			found = true
		}
	}
	if !found {
		t.Fatalf("notes should explain the exclusion: %v", rep.Notes)
	}
}

func TestTournamentStampsNativeArch(t *testing.T) {
	o := tiny()
	o.Threads = []int{1}
	o.Harness.Duration = time.Millisecond
	if got := Tournament(o, []string{"solero"}).Arch; got != NativeArch {
		t.Fatalf("tournament record arch = %q, want %q", got, NativeArch)
	}
}

func TestLoadTrajectoryRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_x.json"),
		[]byte(`{"schema": "other/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(dir); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("want unknown-schema error, got %v", err)
	}
}

func TestLoadTrajectoryAcceptsRootRecord(t *testing.T) {
	// The committed repo-root trajectory must stay loadable (v1 and v2
	// generations coexist).
	records, err := LoadTrajectory(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("repo root should hold at least one BENCH_*.json record")
	}
	rep := Regress(records, 0)
	if rep.Failed() {
		t.Fatalf("committed trajectory must pass the gate: %+v", rep)
	}
}
