// Command solerobench regenerates the paper's tables and figures.
//
// Usage:
//
//	solerobench -exp all                 # everything, CI-scale windows
//	solerobench -exp fig12 -sim          # HashMap sweeps on the 16-way model
//	solerobench -exp fig10 -duration 200ms -runs 5 -inner 5
//
// Experiments: table1, fig10, fig11, fig12, fig13, fig14, fig15, fig16, all.
// Every lock runs natively. Real-execution sweeps (-sim absent) exercise the
// actual lock protocols under goroutines; -sim regenerates the 16-way
// Power6 shapes on the coherence model (see DESIGN.md §3 for the
// substitution rationale). fig10 also prints its fence ablation from the
// coherence model, labelled as simulated.
//
// -json out.json instead runs the instrumented benchmark suite and writes
// one solero-snapshot/v1 bundle per benchmark — the schema shared with
// `lockstats -json` and the live /snapshot.json endpoint (EXPERIMENTS.md
// documents the fields).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig10|fig11|fig12|fig13|fig14|fig15|fig16|crossover|all")
	sim := flag.Bool("sim", false, "use the 16-way coherence simulator for multi-thread figures")
	threads := flag.String("threads", "1,2,4,8,16", "comma-separated thread counts for sweeps")
	duration := flag.Duration("duration", 50*time.Millisecond, "measurement window")
	runs := flag.Int("runs", 3, "independent runs (paper: 5)")
	inner := flag.Int("inner", 3, "measurements per run, best kept (paper: 5)")
	entries := flag.Int("entries", 1024, "map entries (paper: 1K)")
	simCycles := flag.Int64("simcycles", 2_000_000, "simulated cycles per point (-sim)")
	format := flag.String("format", "text", "output format: text|csv")
	jsonOut := flag.String("json", "", "run the instrumented suite and write solero-snapshot/v1 bundles to this file")
	flag.Parse()

	if *format != "text" && *format != "csv" {
		fatalf("unknown format %q", *format)
	}
	csv := *format == "csv"

	o := experiments.DefaultOptions()
	o.Harness.Duration = *duration
	o.Harness.Runs = *runs
	o.Harness.InnerMeasures = *inner
	o.Entries = *entries
	o.UseSim = *sim
	o.SimDuration = *simCycles
	o.Threads = nil
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fatalf("bad -threads value %q", part)
		}
		o.Threads = append(o.Threads, n)
	}

	printTable := func(t *stats.Table) {
		if csv {
			fmt.Print(t.CSV())
			return
		}
		fmt.Println(t.Render())
	}
	printFig := func(f *stats.Figure) {
		if csv {
			fmt.Print(f.CSV())
			return
		}
		fmt.Println(f.Render())
	}
	printFigs := func(figs []*stats.Figure) {
		for _, f := range figs {
			printFig(f)
		}
	}
	run := func(name string) {
		switch name {
		case "table1":
			printTable(experiments.Table1(o))
		case "fig10":
			tables, err := experiments.Fig10(o)
			check(err)
			for _, t := range tables {
				printTable(t)
			}
		case "fig11":
			printTable(experiments.Fig11(o))
		case "fig12":
			figs, err := experiments.Fig12(o)
			check(err)
			printFigs(figs)
		case "fig13":
			figs, err := experiments.Fig13(o)
			check(err)
			printFigs(figs)
		case "fig14":
			fig, err := experiments.Fig14(o)
			check(err)
			printFig(fig)
		case "fig15":
			fig, err := experiments.Fig15(o)
			check(err)
			printFig(fig)
		case "fig16":
			printTable(experiments.Fig16(o))
		case "crossover":
			fig, err := experiments.Crossover(o, 16)
			check(err)
			printFig(fig)
		default:
			fatalf("unknown experiment %q", name)
		}
	}

	if *jsonOut != "" {
		bundles := experiments.JSONSuite(o)
		data, err := json.MarshalIndent(bundles, "", "  ")
		check(err)
		check(os.WriteFile(*jsonOut, append(data, '\n'), 0o644))
		fmt.Printf("wrote %d snapshot bundles to %s\n", len(bundles), *jsonOut)
		return
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"} {
			run(name)
		}
		return
	}
	run(*exp)
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "solerobench: "+format+"\n", args...)
	os.Exit(1)
}
