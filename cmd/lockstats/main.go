// Command lockstats runs one microbenchmark under SOLERO and dumps the
// full protocol counter block — elisions, failures, fallbacks, inflations,
// recovery events — the instrumentation behind Table 1 and Figure 15. A
// metrics registry is always wired through the lock configuration, so every
// run also yields the latency histograms and the abort-cause taxonomy.
//
// Usage:
//
//	lockstats [-bench hashmap|treemap|empty|jbb] [-backend NAME] [-threads N]
//	          [-writes PCT] [-duration D] [-trace N] [-sites]
//	          [-sample-period N] [-json out.json] [-perfetto out.json]
//	          [-pprof out.pb.gz] [-serve :PORT]
//
// -backend selects the lock implementation under the benchmark (solero by
// default; lock/vmlock, rwlock, solero-unelided also work). Every
// backend's protocol counters flow through the same snapshot/export
// pipeline; the SOLERO-only views (latency histograms, abort taxonomy,
// -sites, -trace) stay empty for the others.
// The lock/vmlock and solero backends rent fat monitors from a compact
// monitor table of their own; for those the report adds a monitor-table
// section (occupancy, deflation churn, footprint bytes) and the
// sweep-latency histogram.
//
// -sites prints the sampled abort call sites. -json writes the solero-snapshot/v1 bundle, -perfetto
// writes the tail of the protocol event log as Chrome trace-event JSON for
// Perfetto.
//
// -serve :PORT switches to live mode: the workload runs continuously while
// an HTTP endpoint serves /metrics (Prometheus), /debug/vars (expvar),
// /snapshot.json, and /trace.json until interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/jbb"
	"repro/internal/jthread"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "hashmap", "benchmark: empty|hashmap|treemap|jbb")
	backendName := flag.String("backend", "solero", "lock backend: lock|vmlock|rwlock|solero|solero-unelided")
	threads := flag.Int("threads", 4, "software threads")
	writes := flag.Int("writes", 5, "write percentage (map benchmarks)")
	entries := flag.Int("entries", 1024, "map entries")
	shards := flag.Int("shards", 1, "locks (fine-grained variant when > 1)")
	duration := flag.Duration("duration", 200*time.Millisecond, "measurement window")
	traceN := flag.Int("trace", 0, "record and print the last N protocol events")
	sites := flag.Bool("sites", false, "print sampled abort call sites")
	jsonOut := flag.String("json", "", "write the solero-snapshot/v1 JSON bundle to this file")
	perfettoOut := flag.String("perfetto", "", "write the tail of the protocol event log as Perfetto trace-event JSON to this file")
	pprofOut := flag.String("pprof", "", "write the sampled contention profile as gzipped pprof protobuf to this file (inspect with `go tool pprof -top`)")
	samplePeriod := flag.Int("sample-period", 0, "cs_duration and call-site sampling period: time 1 in N read-only sections and attribute 1 in N abort and contention events to their site (0 keeps the defaults, 64 and 16; 1 samples every one)")
	serve := flag.String("serve", "", "serve live observability HTTP on this address (e.g. :8080) while the workload runs")
	flag.Parse()

	impl, err := workload.ParseImpl(*backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockstats: %v\n", err)
		os.Exit(1)
	}

	reg := metrics.New(0)
	if *samplePeriod > 0 {
		reg.SetSamplePeriod(*samplePeriod)
		reg.SetSitePeriod(*samplePeriod)
	}
	lockCfg := *core.DefaultConfig
	lockCfg.Metrics = reg
	var log *history.Recorder
	tail := *traceN
	if tail == 0 && (*serve != "" || *perfettoOut != "") {
		tail = 4096 // the exports need a log even without -trace
	}
	if tail > 0 {
		log = history.NewTail(tail)
		lockCfg.History = log
	}

	vm := jthread.NewVM()
	opts := harness.Options{
		Threads: *threads, Duration: *duration, Runs: 1, InnerMeasures: 1,
		AsyncEventInterval: 2 * time.Millisecond,
		Metrics:            reg,
	}

	var worker harness.Worker
	var snap func() (map[string]uint64, float64)
	var guards func() []*workload.Guard
	switch *bench {
	case "empty":
		b := workload.NewEmptyConfig(impl, &lockCfg)
		worker = b.Worker()
		guards = func() []*workload.Guard { return []*workload.Guard{b.G} }
		snap = func() (map[string]uint64, float64) {
			if st := b.G.SoleroStats(); st != nil {
				return st.Snapshot(), st.FailureRatio()
			}
			return b.G.Backend().Stats(), 0
		}
	case "hashmap", "treemap":
		kind := workload.Hash
		if *bench == "treemap" {
			kind = workload.Tree
		}
		b := workload.NewMapBenchConfig(kind, impl, *writes, *entries, *shards, &lockCfg)
		worker = b.Worker()
		guards = b.Guards
		snap = func() (map[string]uint64, float64) {
			agg := map[string]uint64{}
			total, ro := b.LockOps()
			agg["lockOpsTotal"], agg["lockOpsReadOnly"] = total, ro
			return agg, b.FailureRatio()
		}
	case "jbb":
		b := jbb.NewWithConfig(impl, *threads, &lockCfg)
		worker = b.Worker()
		guards = b.Guards
		snap = func() (map[string]uint64, float64) {
			agg := map[string]uint64{}
			total, ro := b.LockOps()
			agg["lockOpsTotal"], agg["lockOpsReadOnly"] = total, ro
			return agg, b.FailureRatio()
		}
	default:
		fmt.Fprintf(os.Stderr, "lockstats: unknown benchmark %q\n", *bench)
		os.Exit(1)
	}
	src := export.NewSource(*bench, *threads, reg)
	src.Backend = *backendName
	src.History = log
	src.Counters = func() map[string]uint64 {
		maps := make([]map[string]uint64, 0, 4)
		for _, g := range guards() {
			maps = append(maps, g.Backend().Stats())
		}
		return export.MergeCounters(maps...)
	}
	src.FailureRatio = func() float64 { _, fr := snap(); return fr }

	if *serve != "" {
		go func() {
			for {
				harness.Measure(vm, opts, worker)
			}
		}()
		fmt.Printf("lockstats: running %s (threads=%d) and serving on %s\n", *bench, *threads, *serve)
		fmt.Printf("  curl http://localhost%s/metrics\n", portSuffix(*serve))
		if err := serveUntilSignal(*serve, src.Mux()); err != nil {
			fmt.Fprintf(os.Stderr, "lockstats: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	res := harness.Measure(vm, opts, worker)
	quiesceTables(guards())
	counters, failureRatio := snap()

	if *traceN > 0 {
		// The tail in sequence order, after a count of the older events
		// the log has already dropped.
		fmt.Printf("last protocol events:\n%s\n", log.Format(0))
	}

	fmt.Printf("benchmark:      %s (backend=%s threads=%d writes=%d%% shards=%d)\n", *bench, impl, *threads, *writes, *shards)
	fmt.Printf("throughput:     %.0f ops/s\n", res.OpsPerSec)
	fmt.Printf("failure ratio:  %.2f%%\n", failureRatio)
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-18s %d\n", k+":", counters[k])
	}
	printMonitorTables(guards())
	printHistograms(reg)
	printAborts(reg)
	if *sites {
		printSites(reg)
	}
	if *jsonOut != "" {
		data, err := src.Bundle(res.OpsPerSec).MarshalIndent()
		if err != nil {
			fatalf("bundle: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote snapshot bundle to %s\n", *jsonOut)
	}
	if *perfettoOut != "" {
		data, err := export.PerfettoWith(log, *backendName, runtime.GOMAXPROCS(0))
		if err != nil {
			fatalf("perfetto: %v", err)
		}
		if err := os.WriteFile(*perfettoOut, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote Perfetto trace to %s (open in https://ui.perfetto.dev)\n", *perfettoOut)
	}
	if *pprofOut != "" {
		data, err := export.ContentionProfile(reg)
		if err != nil {
			fatalf("pprof: %v", err)
		}
		if err := os.WriteFile(*pprofOut, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote contention profile to %s (go tool pprof -top %s)\n", *pprofOut, *pprofOut)
	}
}

// quiesceTables stops the background sweepers of any compact monitor
// tables backing the benchmark guards and runs a few explicit sweep
// passes, so the counter dump and occupancy report show steady state
// rather than mid-churn residue. No-op for the table-less backends.
func quiesceTables(gs []*workload.Guard) {
	for _, g := range gs {
		if tb := g.Table(); tb != nil {
			tb.Stop()
			for i := 0; i < 4; i++ {
				tb.Sweep(0)
			}
		}
	}
}

// printMonitorTables reports compact-monitor-table occupancy, deflation
// churn, and the table's heap footprint for the table-backed backends.
// Silent for rwlock.
func printMonitorTables(gs []*workload.Guard) {
	first := true
	for _, g := range gs {
		tb := g.Table()
		if tb == nil {
			continue
		}
		if first {
			fmt.Printf("monitor table (compact):\n")
			first = false
		}
		st := tb.Snapshot()
		fmt.Printf("  occupancy: bound=%d capacity=%d pinned=%d freeList=%d shards=%d\n",
			st.Bound, st.Capacity, st.Pinned, st.FreeListLen, st.Shards)
		fmt.Printf("  churn:     binds=%d rebinds=%d sweepDeflations=%d reclaims=%d (sweep %d + release %d) stalePins=%d sweeps=%d\n",
			st.Binds, st.Rebinds, st.SweepDeflations, st.SweepReclaims+st.ReleaseReclaims,
			st.SweepReclaims, st.ReleaseReclaims, st.StalePins, st.Sweeps)
		fb := tb.FootprintBytes()
		fmt.Printf("  footprint: %d bytes", fb)
		if st.Bound > 0 {
			fmt.Printf(" (%.1f per bound monitor)", float64(fb)/float64(st.Bound))
		}
		fmt.Printf("\n")
	}
}

// printHistograms summarizes each latency histogram that saw samples.
func printHistograms(reg *metrics.Registry) {
	fmt.Printf("latency histograms (sampled):\n")
	any := false
	for _, h := range reg.Histograms() {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		any = true
		fmt.Printf("  %-12s n=%-8d mean=%-10.0f p50=%-8d p99=%-8d max=%d ns\n",
			h.Name(), s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.99), s.Max)
	}
	if !any {
		fmt.Printf("  (no samples)\n")
	}
}

// printAborts renders the abort-cause taxonomy.
func printAborts(reg *metrics.Registry) {
	counts := reg.AbortCounts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("abort taxonomy:\n")
	for _, k := range keys {
		fmt.Printf("  %-20s %d\n", k+":", counts[k])
	}
}

// printSites ranks the sampled abort call sites.
func printSites(reg *metrics.Registry) {
	sites := reg.Sites()
	if len(sites) == 0 {
		fmt.Printf("abort call sites: none sampled\n")
		return
	}
	fmt.Printf("abort call sites (1/%d sampled):\n", reg.SiteSamplePeriod())
	for _, s := range sites {
		fmt.Printf("  %6d  %-18s %s (%s:%d)\n", s.Total, s.TopCause(), s.Function, s.File, s.Line)
	}
}

// serveUntilSignal runs the observability endpoint until SIGINT/SIGTERM,
// then drains in-flight scrapes: a snapshot request racing the shutdown
// completes instead of seeing a reset connection, and a second signal
// still kills the process the hard way (NotifyContext restores default
// delivery once the context fires).
func serveUntilSignal(addr string, mux *http.ServeMux) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err // bind failure or other listener error
	case <-ctx.Done():
	}
	stop() // restore default signal handling for an impatient second ^C
	fmt.Printf("lockstats: shutting down\n")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errc // ListenAndServe has returned http.ErrServerClosed by now
	return nil
}

// portSuffix turns a listen address into the ":PORT" part for the curl hint.
func portSuffix(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[i:]
		}
	}
	return addr
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lockstats: "+format+"\n", args...)
	os.Exit(1)
}
