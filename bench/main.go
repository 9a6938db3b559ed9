// Command bench is the repository's end-to-end benchmark: three workloads
// driven through the public lock API (solero, solero/rmap) from a closed
// loop, each round in a fresh child process, with a traced mode that adds a
// single-thread layer ladder and span-derived per-layer metrics. See
// README.md for the workloads, metrics and commands.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	record   string

	// child-process flags
	child bool
	round int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all three, rounds interleaved)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per workload in an untraced run; sets the number of rounds")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run (ladder, counters, spans) reporting per-layer metrics")
	fs.StringVar(&o.record, "record", "", "append the run record (JSON, one line) to this file, for compare")
	fs.BoolVar(&o.child, "child", false, "run one round in this process (used by the orchestrator)")
	fs.IntVar(&o.round, "round", 1, "child: round number")
	fs.Parse(os.Args[1:])
	if o.child {
		os.Exit(childMain(o, os.Stdout))
	}
	os.Exit(orchestrate(o, os.Stdout))
}

// Child exit codes besides 0.
const (
	exitUsage   = 2
	exitAudit   = 3
	exitStalled = 4
)

func childMain(o options, stdout io.Writer) int {
	wl := workloadByName(o.workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return exitUsage
	}
	res := runRound(newRound(wl, o.seed, o.round, o.trace == 1))
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encoding round result:", err)
		return exitUsage
	}
	fmt.Fprintf(stdout, "%s\n", b)
	switch {
	case res.Stalled:
		return exitStalled // the stuck workers end with the process
	case res.AuditError != "":
		return exitAudit
	}
	return 0
}

// wlReport is one workload's part of a run record.
type wlReport struct {
	E2E       map[string]float64 `json:"e2e,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Rounds    []roundResult      `json:"rounds"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

func (r *wlReport) add(res roundResult) {
	r.Rounds = append(r.Rounds, res)
	r.Attempted += res.Attempted
	r.Failed += res.Failed
	switch {
	case res.Stalled:
		r.Errors = append(r.Errors, fmt.Sprintf("round %d stalled; stacks in %s", res.Round, res.StallDump))
	case res.AuditError != "":
		r.Errors = append(r.Errors, fmt.Sprintf("round %d audit: %s", res.Round, res.AuditError))
	}
}

func (r *wlReport) correct() bool {
	return len(r.Errors) == 0 && r.Failed == 0 && r.Attempted > 0
}

// runRecord is what one invocation measured; -record appends it as one line
// and compare reads sets of them.
type runRecord struct {
	Schema     string               `json:"schema"`
	Seed       int64                `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      int                  `json:"trace"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go"`
	Start      string               `json:"start"`
	Workloads  map[string]*wlReport `json:"workloads"`
}

const recordSchema = "solero-e2e/v1"

func orchestrate(o options, stdout io.Writer) int {
	wls := workloads
	if o.workload != "" {
		wl := workloadByName(o.workload)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return exitUsage
		}
		wls = []*workload{wl}
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -seconds > 0 and -trace 0 or 1")
		return exitUsage
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitUsage
	}
	// Every round has the same shape; -seconds only sets how many there are.
	rounds := max(1, int(math.Round(o.seconds/roundMeasured.Seconds())))
	if o.trace == 1 {
		rounds = 2 // one untraced and one traced round
	}
	run := func(wl *workload, round int, traced bool) (roundResult, error) {
		args := []string{"-child", "-workload", wl.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-round", strconv.Itoa(round)}
		if traced {
			args = append(args, "-trace", "1")
		}
		return runChild(exe, args, roundWarmup+roundMeasured+time.Minute)
	}

	rec := runRecord{Schema: recordSchema, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Start: time.Now().UTC().Format(time.RFC3339), Workloads: map[string]*wlReport{}}
	for _, wl := range wls {
		rec.Workloads[wl.name] = &wlReport{}
	}
	fmt.Fprintf(os.Stderr, "bench: seed=%d gomaxprocs=%d rounds=%d windows=%dx%v warmup=%v trace=%d\n",
		o.seed, rec.GOMAXPROCS, rounds, roundWindows, roundWindow, roundWarmup, o.trace)

	var ladder map[string]float64
	if o.trace == 1 {
		ladder = runLadder(o.seed)
	}
	reruns := map[string]int{}
	for r := 1; r <= rounds; r++ {
		for _, wl := range wls {
			rep := rec.Workloads[wl.name]
			traced := o.trace == 1 && r == 2
			res, err := run(wl, r, traced)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("round %d: %v", r, err))
				continue
			}
			// The environment sentinel: a round during which the
			// calibration loop's speed moved is re-run once.
			if o.trace == 0 && !res.Stalled && noisy(res) && reruns[wl.name] == 0 {
				reruns[wl.name]++
				res.Noisy = true
				rep.add(res)
				logRound(res)
				if res, err = run(wl, r, false); err != nil {
					rep.Errors = append(rep.Errors, fmt.Sprintf("round %d rerun: %v", r, err))
					continue
				}
				res.Rerun = true
			}
			res.Used = !res.Stalled
			rep.add(res)
			logRound(res)
		}
	}

	for _, wl := range wls {
		rep := rec.Workloads[wl.name]
		if o.trace == 0 {
			rep.E2E = e2eFrom(rep)
		} else {
			rep.Layer = layerFrom(rep, ladder)
		}
	}
	res := summarize(rec, wls, o.trace == 1)
	printTables(stdout, rec, wls, o.trace == 1)
	if o.record != "" {
		if err := appendRecord(o.record, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing record:", err)
			res.Correct = false
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

func noisy(r roundResult) bool {
	return r.CalibStartNs > 0 && math.Abs(r.CalibEndNs-r.CalibStartNs)/r.CalibStartNs > noisyShare
}

func logRound(r roundResult) {
	flags := ""
	for _, f := range []struct {
		on   bool
		name string
	}{{r.Traced, "traced"}, {r.Noisy, "noisy"}, {r.Rerun, "rerun"}, {r.Stalled, "STALLED"}, {r.AuditError != "", "AUDIT-FAILED"}} {
		if f.on {
			flags += " " + f.name
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %-10s round %d: ops/s=%.4g read p50=%.1fns p99=%.1fns write p50=%.1fns p99=%.1fns setup=%.4gs calib %.0f->%.0fns failed=%d/%d%s\n",
		r.Workload, r.Round, r.OpsPerS, r.ReadP50Ns, r.ReadP99Ns, r.WriteP50Ns, r.WriteP99Ns,
		r.SetupS, r.CalibStartNs, r.CalibEndNs, r.Failed, r.Attempted, flags)
}

// runChild runs one round in a fresh process and parses its result, killing
// the child if it outlives limit.
func runChild(exe string, args []string, limit time.Duration) (roundResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var res roundResult
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr == nil {
			runErr = err
		}
		return res, fmt.Errorf("child %v: %w", args, runErr)
	}
	var exitErr *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exitErr) {
		return res, runErr
	}
	return res, nil
}

// e2eFrom takes the medians of the used rounds; failed_share counts every
// round.
func e2eFrom(rep *wlReport) map[string]float64 {
	m := map[string]float64{}
	for _, d := range recordedE2E {
		var xs []float64
		for _, r := range rep.Rounds {
			if r.Used && (r.WriteSamples > 0 || !strings.HasPrefix(d.name, "write_")) {
				xs = append(xs, roundValue(r, d.name))
			}
		}
		if len(xs) > 0 {
			m[d.name] = median(xs)
		}
	}
	if len(m) == 0 {
		return nil
	}
	m["failed_share"] = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	return m
}

// layerFrom assembles a traced run's per-layer metrics: counters from the
// untraced round, spans from the traced one, and the ladder.
func layerFrom(rep *wlReport, ladder map[string]float64) map[string]float64 {
	var plain, traced *roundResult
	for i := range rep.Rounds {
		if r := &rep.Rounds[i]; r.Used && r.Traced {
			traced = r
		} else if r.Used {
			plain = r
		}
	}
	if plain == nil || traced == nil {
		return nil
	}
	m := map[string]float64{}
	for k, v := range ladder {
		m[k] = v
	}
	for k, v := range plain.Layer {
		m[k] = v
	}
	for k, v := range traced.Spans {
		m[k] = v
	}
	m["trace.overhead_pct"] = 100 * (plain.OpsPerS - traced.OpsPerS) / plain.OpsPerS
	m["env.clock_floor_ns"] = plain.ClockFloorNs
	m["env.calib_ns"] = plain.CalibStartNs
	return m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the result line: every end-to-end metric (untraced) or
// every per-layer metric (traced), prefixed by the workload name when the
// run covers more than one workload.
func summarize(rec runRecord, wls []*workload, traced bool) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	defs, pick := e2eMetrics, func(r *wlReport) map[string]float64 { return r.E2E }
	if traced {
		defs, pick = layerMetrics, func(r *wlReport) map[string]float64 { return r.Layer }
	}
	for _, wl := range wls {
		rep := rec.Workloads[wl.name]
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		if !rep.correct() {
			res.Correct = false
		}
		vals := pick(rep)
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				res.Correct = false
				continue
			}
			name := d.name
			if len(wls) > 1 {
				name = wl.name + "." + name
			}
			res.Metrics[name] = metricValue{v, d.unit}
		}
	}
	return res
}

func printTables(w io.Writer, rec runRecord, wls []*workload, traced bool) {
	for _, wl := range wls {
		rep := rec.Workloads[wl.name]
		fmt.Fprintf(w, "\n%s — %s\n", wl.name, wl.why)
		for _, e := range rep.Errors {
			fmt.Fprintf(w, "  ERROR %s\n", e)
		}
		fmt.Fprintf(w, "  ops %d attempted, %d failed\n", rep.Attempted, rep.Failed)
		if traced {
			for _, d := range layerMetrics {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, rep.Layer[d.name], d.unit)
			}
			continue
		}
		for _, d := range recordedE2E {
			v, ok := rep.E2E[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-14s %14.6g %-5s rounds:", d.name, v, d.unit)
			for _, r := range rep.Rounds {
				if r.Used {
					fmt.Fprintf(w, " %.6g", roundValue(r, d.name))
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

// roundValue is one round's reading of an end-to-end metric.
func roundValue(r roundResult, name string) float64 {
	switch name {
	case "setup_s":
		return r.SetupS
	case "ops_per_s":
		return r.OpsPerS
	case "read_p50_ns":
		return r.ReadP50Ns
	case "read_p99_ns":
		return r.ReadP99Ns
	case "write_p50_ns":
		return r.WriteP50Ns
	case "write_p99_ns":
		return r.WriteP99Ns
	case "lock_bytes":
		return r.LockBytes
	case "failed_share":
		return float64(r.Failed) / float64(max(r.Attempted, 1))
	}
	return math.NaN()
}

func appendRecord(path string, rec runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
