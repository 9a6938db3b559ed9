package experiments

import (
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/harness"
	"repro/internal/jbb"
	"repro/internal/jthread"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// JSONSuite runs the instrumented benchmark suite — Empty, HashMap 0%/5%,
// TreeMap 5%, and SPECjbb-sim under SOLERO, each with its own metrics
// registry — and returns one solero-snapshot/v1 bundle per benchmark. This
// is the `solerobench -json` output: the same schema `lockstats -json` and
// the live /snapshot.json endpoint emit, so downstream tooling consumes all
// three interchangeably.
func JSONSuite(o Options) []*export.Bundle {
	threads := 4
	if n := len(o.Threads); n > 0 {
		threads = o.Threads[n-1]
	}
	type bench struct {
		name string
		run  func(base *core.Config) (harness.Worker, func() []*core.Stats, func() float64)
	}
	soleroBlocks := func(gs []*workload.Guard) func() []*core.Stats {
		return func() []*core.Stats {
			var out []*core.Stats
			for _, g := range gs {
				if st := g.SoleroStats(); st != nil {
					out = append(out, st)
				}
			}
			return out
		}
	}
	mapBench := func(kind workload.MapKind, writePct int) func(*core.Config) (harness.Worker, func() []*core.Stats, func() float64) {
		return func(base *core.Config) (harness.Worker, func() []*core.Stats, func() float64) {
			b := workload.NewMapBenchConfig(kind, workload.ImplSolero, writePct, o.Entries, 1, base)
			return b.Worker(), soleroBlocks(b.Guards()), b.FailureRatio
		}
	}
	benches := []bench{
		{"empty", func(base *core.Config) (harness.Worker, func() []*core.Stats, func() float64) {
			e := workload.NewEmptyConfig(workload.ImplSolero, base)
			return e.Worker(), soleroBlocks([]*workload.Guard{e.G}), e.G.SoleroStats().FailureRatio
		}},
		{"hashmap-0w", mapBench(workload.Hash, 0)},
		{"hashmap-5w", mapBench(workload.Hash, 5)},
		{"treemap-5w", mapBench(workload.Tree, 5)},
		{"jbb", func(base *core.Config) (harness.Worker, func() []*core.Stats, func() float64) {
			b := jbb.NewWithConfig(workload.ImplSolero, threads, base)
			return b.Worker(), b.SoleroStats, b.FailureRatio
		}},
	}
	var out []*export.Bundle
	for _, b := range benches {
		reg := metrics.New(0)
		base := *core.DefaultConfig
		base.Metrics = reg
		worker, blocks, failure := b.run(&base)
		vm := jthread.NewVM()
		h := o.Harness
		h.Threads = threads
		h.Metrics = reg
		res := harness.Measure(vm, h, worker)

		src := export.NewSource(b.name, threads, reg)
		src.Counters = func() map[string]uint64 {
			maps := make([]map[string]uint64, 0, 4)
			for _, st := range blocks() {
				maps = append(maps, st.Snapshot())
			}
			return export.MergeCounters(maps...)
		}
		src.FailureRatio = failure
		out = append(out, src.Bundle(res.OpsPerSec))
	}
	return out
}
