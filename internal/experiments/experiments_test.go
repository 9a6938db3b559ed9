package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

// tiny returns options scaled for CI.
func tiny() Options {
	o := DefaultOptions()
	o.Harness = harness.Options{Duration: 8 * time.Millisecond, Runs: 1, InnerMeasures: 1}
	o.Threads = []int{1, 2}
	o.Entries = 128
	o.SimDuration = 300_000
	return o
}

func TestTable1Shape(t *testing.T) {
	o := tiny()
	tab := Table1(o)
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 benchmarks", len(tab.Rows))
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	ro := func(name string) float64 {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("missing row %s", name)
		}
		v, err := strconv.ParseFloat(r[2], 64)
		if err != nil {
			t.Fatalf("bad ratio %q", r[2])
		}
		return v
	}
	if ro("Empty") != 100 || ro("HashMap (0% writes)") != 100 {
		t.Fatalf("pure-read benchmarks not 100%% read-only")
	}
	if v := ro("HashMap (5% writes)"); v < 90 || v > 99 {
		t.Fatalf("HashMap 5%% read-only ratio = %f, want ~95", v)
	}
	if v := ro("SPECjbb-sim"); v < 47 || v > 61 {
		t.Fatalf("SPECjbb read-only ratio = %f, want ~54", v)
	}
	if v := ro("h2"); v != 0 {
		t.Fatalf("h2 read-only ratio = %f, want 0", v)
	}
}

// normalizedRows parses a Figure 10 table into implementation → normalized
// time, checking its row count and that Lock is the unit.
func normalizedRows(t *testing.T, tab *stats.Table, rows int) map[string]float64 {
	t.Helper()
	if len(tab.Rows) != rows {
		t.Fatalf("%s: rows = %d, want %d implementations", tab.Title, len(tab.Rows), rows)
	}
	norm := map[string]float64{}
	for _, r := range tab.Rows {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatalf("bad normalized time %q", r[1])
		}
		norm[r[0]] = v
	}
	if norm["Lock"] != 1 {
		t.Fatalf("%s: Lock not normalized to 1: %f", tab.Title, norm["Lock"])
	}
	return norm
}

func TestFig10Shape(t *testing.T) {
	o := tiny()
	tabs, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("got %d tables, want native and simulated", len(tabs))
	}
	// The fence ablation is simulated and deterministic, so it holds
	// under the race detector too. WeakBarrier trades correctness for
	// cheaper fences: it must be faster than correct SOLERO.
	if !strings.Contains(tabs[1].Title, "[simulated, Power fence costs]") {
		t.Fatalf("fence ablation table not labelled as simulated: %q", tabs[1].Title)
	}
	sim := normalizedRows(t, tabs[1], 3)
	if sim["WeakBarrier-SOLERO"] >= sim["SOLERO"] {
		t.Fatalf("simulated WeakBarrier (%f) not below SOLERO (%f)", sim["WeakBarrier-SOLERO"], sim["SOLERO"])
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the native relative shapes")
	}
	norm := normalizedRows(t, tabs[0], 4)
	// Headline: SOLERO reduces lock overhead vs Lock; the RWLock is
	// slower than Lock; Unelided is not faster than SOLERO.
	if norm["SOLERO"] >= 1 {
		t.Fatalf("SOLERO normalized time %f, want < 1", norm["SOLERO"])
	}
	if norm["RWLock"] <= 1 {
		t.Fatalf("RWLock normalized time %f, want > 1", norm["RWLock"])
	}
	if norm["Unelided-SOLERO"] < norm["SOLERO"] {
		t.Fatalf("Unelided (%f) beat SOLERO (%f)", norm["Unelided-SOLERO"], norm["SOLERO"])
	}
}

func TestFig11Shape(t *testing.T) {
	o := tiny()
	tab := Fig11(o)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] != "100.0" {
			t.Fatalf("Lock column not 100%%: %v", r)
		}
		sol, err := strconv.ParseFloat(r[3], 64)
		if err != nil || sol <= 0 {
			t.Fatalf("bad SOLERO cell %q", r[3])
		}
	}
}

func TestFig12SimShapes(t *testing.T) {
	o := tiny()
	o.UseSim = true
	o.Threads = []int{1, 4, 16}
	figs, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("figures = %d", len(figs))
	}
	a := figs[0]
	var solero, lock []float64
	for _, s := range a.Series {
		switch s.Name {
		case "SOLERO":
			solero = s.Y
		case "Lock":
			lock = s.Y
		}
	}
	// 0% writes at 16 cores: SOLERO scales, Lock does not (paper 12a).
	if solero[len(solero)-1] < 4*lock[len(lock)-1] {
		t.Fatalf("12(a) @16: SOLERO %.2f vs Lock %.2f — multiple expected", solero[len(solero)-1], lock[len(lock)-1])
	}
	if solero[len(solero)-1] < 6 {
		t.Fatalf("12(a) @16: SOLERO normalized %.2f, want near-linear", solero[len(solero)-1])
	}
}

func TestFig13And14Sim(t *testing.T) {
	o := tiny()
	o.UseSim = true
	o.Threads = []int{1, 8}
	figs, err := Fig13(o)
	if err != nil || len(figs) != 2 {
		t.Fatalf("fig13: %v %d", err, len(figs))
	}
	fig, err := Fig14(o)
	if err != nil || len(fig.Series) != 3 {
		t.Fatalf("fig14: %v", err)
	}
}

func TestFig15SimGrowsWithThreads(t *testing.T) {
	o := tiny()
	o.UseSim = true
	o.Threads = []int{2, 16}
	fig, err := Fig15(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if strings.HasPrefix(s.Name, "HashMap 5% ") || strings.HasPrefix(s.Name, "SPECjbb") {
			continue // fine-grained/jbb curves stay near zero
		}
		if s.Y[1] < s.Y[0] {
			t.Fatalf("%s: failure ratio fell with threads: %v", s.Name, s.Y)
		}
	}
}

func TestFig15RealMode(t *testing.T) {
	o := tiny()
	o.Threads = []int{2}
	fig, err := Fig15(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if y < 0 || y > 100 {
				t.Fatalf("%s: ratio out of range %f", s.Name, y)
			}
		}
	}
}

func TestFig16RunsAllProfiles(t *testing.T) {
	o := tiny()
	tab := Fig16(o)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		norm, err := strconv.ParseFloat(r[3], 64)
		if err != nil || norm <= 0 {
			t.Fatalf("bad normalized time %v", r)
		}
	}
}

func TestCrossoverShape(t *testing.T) {
	o := tiny()
	o.SimDuration = 1_000_000
	fig, err := Crossover(o, 16)
	if err != nil {
		t.Fatal(err)
	}
	ratio := fig.Series[0].Y
	if len(ratio) != len(fig.X) {
		t.Fatalf("malformed figure")
	}
	// SOLERO never loses to Lock (the paper's only-downside-is-<1%
	// claim), and at 100% writes the protocols coincide.
	for i, r := range ratio {
		if r < 0.95 {
			t.Fatalf("SOLERO below Lock at write%%=%v: %f", fig.X[i], r)
		}
	}
	last := ratio[len(ratio)-1]
	if last < 0.95 || last > 1.05 {
		t.Fatalf("100%% writes ratio = %f, want ~1", last)
	}
}

func TestRealModeSweepsRun(t *testing.T) {
	o := tiny()
	o.Threads = []int{1, 2}
	figs, err := Fig12(o)
	if err != nil || len(figs) != 3 {
		t.Fatalf("fig12 real: %v", err)
	}
	for _, f := range figs {
		if len(f.Series) != 3 || len(f.Series[0].Y) != 2 {
			t.Fatalf("malformed figure %s", f.Title)
		}
	}
	if _, err := Fig14(o); err != nil {
		t.Fatal(err)
	}
}
