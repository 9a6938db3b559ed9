package main

import (
	"io"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 9, 7, 2, 8.5}, [3]float64{1.8125, 5.25, 8.625}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func loadFixture(t *testing.T, path string) []runRecord {
	t.Helper()
	set, err := loadSet(path)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestCompareVerdicts(t *testing.T) {
	base := loadFixture(t, "testdata/base.jsonl")
	change := loadFixture(t, "testdata/change.jsonl")
	if len(change) != 10 {
		t.Fatalf("change set has %d untraced records, want 10 (the traced one is skipped)", len(change))
	}
	got := map[string]string{}
	for _, r := range compareSets(base, change) {
		got[r.workload+"/"+r.def.name] = r.verdict
	}
	for key, want := range map[string]string{
		"ro-hashmap/setup_s":     "ok",         // 50% slower, but by less than the 5 ms floor
		"ro-hashmap/ops_per_s":   "regression", // 35% fewer ops/s, bound 25%
		"ro-hashmap/read_p50_ns": "gain",       // every pair 12% faster
		"ro-hashmap/read_p99_ns": "unresolved", // B's own spread is about 40%
		"ro-hashmap/lock_bytes":  "ok",
		"rw5-rmap/write_p50_ns":  "ok",
		"rw5-rmap/failed_share":  "regression", // any increase from 0
	} {
		if got[key] != want {
			t.Errorf("%s: verdict %q, want %q", key, got[key], want)
		}
	}
	if _, ok := got["rw5-rmap/read_p50_ns"]; ok {
		t.Error("a metric absent from both sets was compared")
	}

	for _, r := range compareSets(base, base) {
		if r.verdict != "ok" {
			t.Errorf("base against itself: %s/%s is %q, want ok", r.workload, r.def.name, r.verdict)
		}
	}
	if code := compareMain([]string{"testdata/base.jsonl", "testdata/change.jsonl"}, io.Discard); code != 1 {
		t.Errorf("compare with regressions exited %d, want 1", code)
	}
	if code := compareMain([]string{"testdata/base.jsonl", "testdata/base.jsonl"}, io.Discard); code != 0 {
		t.Errorf("compare of a set with itself exited %d, want 0", code)
	}
}
