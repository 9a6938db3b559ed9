package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// compare reads two sets of untraced run records (files of JSON lines, as
// written by -record) and judges every (workload, end-to-end metric):
//
//   - gain: B beats A in at least 9 of every 10 pairs (ties count for
//     neither) and the medians differ by more than A's quartile distance;
//   - ok: the medians differ by no more than the metric's absolute floor
//     (setup_s: 5 ms);
//   - unresolved: the same-commit spread (quartile distance over median,
//     the wider of the two sets) exceeds the bound, and B's runs do not all
//     read better than A's;
//   - regression: B's median is worse than A's by more than the bound;
//   - ok: otherwise.
//
// It exits 1 when any metric regressed.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return exitUsage
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b []runRecord
		if b, err = loadSet(args[1]); err == nil {
			rows := compareSets(a, b)
			printCompare(w, rows, len(a), len(b))
			for _, r := range rows {
				if r.verdict == "regression" {
					return 1
				}
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return exitUsage
}

// loadSet reads the untraced records of one set.
func loadSet(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	dec := json.NewDecoder(f)
	for {
		var r runRecord
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s: record schema %q, want %q", path, r.Schema, recordSchema)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", path)
	}
	return out, nil
}

type summary struct {
	q1, med, q3 float64
	relativeIQR float64
}

func summarizeValues(xs []float64) summary {
	q := quartiles(xs)
	s := summary{q1: q[0], med: q[1], q3: q[2]}
	if s.med != 0 {
		s.relativeIQR = (s.q3 - s.q1) / math.Abs(s.med)
	}
	return s
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads agree with tools that use it.
func quartiles(xs []float64) [3]float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

type cmpRow struct {
	workload string
	def      metricDef
	a, b     summary
	change   float64 // relative change of the median; positive is worse
	spread   float64
	wins     int
	pairs    int
	verdict  string
}

func compareSets(a, b []runRecord) []cmpRow {
	var rows []cmpRow
	for _, wl := range workloads {
		for _, d := range recordedE2E {
			av, bv := setValues(a, wl.name, d.name), setValues(b, wl.name, d.name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			rows = append(rows, judge(wl.name, d, av, bv))
		}
	}
	return rows
}

func setValues(set []runRecord, wl, metric string) []float64 {
	var out []float64
	for _, r := range set {
		if rep := r.Workloads[wl]; rep != nil {
			if v, ok := rep.E2E[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func judge(wl string, d metricDef, av, bv []float64) cmpRow {
	r := cmpRow{workload: wl, def: d, a: summarizeValues(av), b: summarizeValues(bv)}
	better := func(x, y float64) bool { // x better than y
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	sign := 1.0
	if d.better == "higher" {
		sign = -1
	}
	switch {
	case r.a.med != 0:
		r.change = sign * (r.b.med - r.a.med) / math.Abs(r.a.med)
	case r.b.med != r.a.med:
		r.change = math.Inf(1)
		if better(r.b.med, r.a.med) {
			r.change = math.Inf(-1)
		}
	}
	r.spread = max(r.a.relativeIQR, r.b.relativeIQR)
	r.pairs = min(len(av), len(bv))
	for i := range r.pairs {
		if better(bv[i], av[i]) {
			r.wins++
		}
	}
	allBetter := true
	for _, x := range bv {
		for _, y := range av {
			allBetter = allBetter && better(x, y)
		}
	}
	gain := r.wins*10 >= 9*r.pairs && better(r.b.med, r.a.med) && math.Abs(r.b.med-r.a.med) > r.a.q3-r.a.q1
	switch {
	case gain:
		r.verdict = "gain"
	case d.floor > 0 && math.Abs(r.b.med-r.a.med) <= d.floor:
		r.verdict = "ok"
	case r.spread > d.bound && !allBetter:
		r.verdict = "unresolved"
	case r.change > d.bound:
		r.verdict = "regression"
	default:
		r.verdict = "ok"
	}
	return r
}

func printCompare(w io.Writer, rows []cmpRow, na, nb int) {
	fmt.Fprintf(w, "A: %d runs, B: %d runs; median [q1, q3]; change is B vs A, positive = worse\n", na, nb)
	fmt.Fprintf(w, "%-11s %-13s %-34s %-34s %8s %6s %7s %6s  %s\n",
		"workload", "metric", "A", "B", "change", "bound", "spread", "pairs", "verdict")
	q := func(s summary) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", s.med, s.q1, s.q3) }
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-13s %-34s %-34s %+7.2f%% %5.0f%% %6.2f%% %2d/%-3d  %s\n",
			r.workload, r.def.name, q(r.a), q(r.b), 100*r.change, 100*r.def.bound, 100*r.spread,
			r.wins, r.pairs, r.verdict)
	}
}
