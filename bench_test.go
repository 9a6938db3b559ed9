package repro

// One benchmark per table and figure of the paper's evaluation (§4), plus
// ablation benchmarks for the design choices listed in DESIGN.md §5 and
// microbenchmarks of the individual substrates. cmd/solerobench runs the
// same experiments with the paper's 5×best-of-5 protocol and renders the
// tables/figures; these testing.B entry points regenerate each artifact's
// underlying measurements under `go test -bench`.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/collections/hashmap"
	"repro/internal/collections/treemap"
	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/govet/facts"
	"repro/internal/jbb"
	"repro/internal/jit"
	"repro/internal/jit/codegen"
	"repro/internal/jit/interp"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/metrics"
	"repro/internal/montable"
	"repro/internal/rwlock"
	"repro/internal/seqlock"
	"repro/internal/simcoherence"
	"repro/internal/stats"
	"repro/internal/vmlock"
	"repro/internal/workload"
	"repro/solero"
	"repro/solero/rmap"
)

// benchThreads splits b.N operations across the given number of goroutines,
// each attached to a fresh VM thread.
func benchThreads(b *testing.B, vm *jthread.VM, threads int, op func(g int, th *jthread.Thread)) {
	b.Helper()
	per := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := vm.Attach("bench")
			defer th.Detach()
			for j := 0; j < per; j++ {
				op(g, th)
			}
		}(g)
	}
	wg.Wait()
}

var benchSink atomic.Uint64

// benchSeed is one goroutine's LCG state and result sink, alone on its
// false-sharing range: goroutines stepping their own seeds share no line.
type benchSeed struct {
	x    uint64
	sink uint64
	_    [stats.FalseSharingRange - 16]byte
}

// next advances goroutine g's LCG and returns the new state.
func (s *benchSeed) next(g int) uint64 {
	s.x = s.x*6364136223846793005 + uint64(g) + 1
	return s.x
}

// sweepThreads are the per-figure thread counts; scaled down from the
// paper's 1..16 because real sweeps on this harness share physical cores.
var sweepThreads = []int{1, 2, 4}

// --- Table 1 ---

// BenchmarkTable1LockStats measures the instrumented lock-operation mix of
// the HashMap 5%-writes benchmark and reports the read-only share — the
// Table 1 statistic (cmd/solerobench -exp table1 prints the full table).
func BenchmarkTable1LockStats(b *testing.B) {
	wl := workload.NewMapBench(workload.Hash, workload.ImplSolero, 5, 1024, 1)
	vm := jthread.NewVM()
	r, sink := uint64(12345), uint64(0)
	benchThreads(b, vm, 1, func(g int, th *jthread.Thread) {
		r = r*6364136223846793005 + 1
		k := int64(r % 1024)
		if r>>32%100 < 5 {
			wl.Guards()[0].Write(th, func() {})
		}
		var v uint64
		wl.Guards()[0].Read(th, func() { v = uint64(k) })
		sink += v
	})
	benchSink.Store(sink)
	total, ro := wl.LockOps()
	if total > 0 {
		b.ReportMetric(100*float64(ro)/float64(total), "readonly_%")
	}
}

// --- Figure 10 ---

// BenchmarkFig10Empty measures the empty synchronized block under the four
// native configurations — the lock-overhead comparison. The WeakBarrier
// fence ablation is simulated (simcoherence's BenchmarkAblationFence).
func BenchmarkFig10Empty(b *testing.B) {
	for _, impl := range workload.Fig10Impls {
		b.Run(impl.String(), func(b *testing.B) {
			e := workload.NewEmpty(impl)
			vm := jthread.NewVM()
			benchThreads(b, vm, 1, func(g int, th *jthread.Thread) {
				e.G.Read(th, func() {})
			})
		})
	}
}

// --- Figure 11 ---

// BenchmarkFig11SingleThread measures each benchmark single-threaded under
// each implementation; relative performance is the ratio of the per-op
// times.
func BenchmarkFig11SingleThread(b *testing.B) {
	cases := []struct {
		name string
		mk   func(workload.Impl) func(*jthread.Thread)
	}{
		{"HashMap0", mapOp(workload.Hash, 0)},
		{"HashMap5", mapOp(workload.Hash, 5)},
		{"TreeMap0", mapOp(workload.Tree, 0)},
		{"TreeMap5", mapOp(workload.Tree, 5)},
		{"SPECjbb", jbbOp()},
	}
	for _, c := range cases {
		for _, impl := range workload.PaperImpls {
			b.Run(c.name+"/"+impl.String(), func(b *testing.B) {
				op := c.mk(impl)
				vm := jthread.NewVM()
				benchThreads(b, vm, 1, func(g int, th *jthread.Thread) { op(th) })
			})
		}
	}
}

func mapOp(kind workload.MapKind, writePct int) func(workload.Impl) func(*jthread.Thread) {
	return func(impl workload.Impl) func(*jthread.Thread) {
		wl := workload.NewMapBench(kind, impl, writePct, 1024, 1)
		var r uint64 = 99
		return func(th *jthread.Thread) {
			r = r*6364136223846793005 + 1
			wl.Op(th, r)
		}
	}
}

func jbbOp() func(workload.Impl) func(*jthread.Thread) {
	return func(impl workload.Impl) func(*jthread.Thread) {
		bench := jbb.New(impl, 1)
		var r uint64 = 7
		return func(th *jthread.Thread) {
			r = r*6364136223846793005 + 1
			bench.Op(th, 0, r)
		}
	}
}

// --- Figures 12–14 (real execution) ---

// BenchmarkFig12HashMap sweeps the HashMap benchmark: (a) 0% writes,
// (b) 5% writes, (c) 5% fine-grained (shards == threads).
func BenchmarkFig12HashMap(b *testing.B) {
	for _, variant := range []struct {
		name     string
		writePct int
		fine     bool
	}{{"writes0", 0, false}, {"writes5", 5, false}, {"writes5fine", 5, true}} {
		for _, impl := range workload.PaperImpls {
			for _, n := range sweepThreads {
				b.Run(fmt.Sprintf("%s/%s/t%d", variant.name, impl, n), func(b *testing.B) {
					shards := 1
					if variant.fine {
						shards = n
					}
					wl := workload.NewMapBench(workload.Hash, impl, variant.writePct, 1024, shards)
					vm := jthread.NewVM()
					seeds := make([]benchSeed, n)
					benchThreads(b, vm, n, func(g int, th *jthread.Thread) {
						wl.Op(th, seeds[g].next(g))
					})
				})
			}
		}
	}
}

// BenchmarkFig13TreeMap sweeps the TreeMap benchmark at 0% and 5% writes.
func BenchmarkFig13TreeMap(b *testing.B) {
	for _, writePct := range []int{0, 5} {
		for _, impl := range workload.PaperImpls {
			for _, n := range sweepThreads {
				b.Run(fmt.Sprintf("writes%d/%s/t%d", writePct, impl, n), func(b *testing.B) {
					wl := workload.NewMapBench(workload.Tree, impl, writePct, 1024, 1)
					vm := jthread.NewVM()
					seeds := make([]benchSeed, n)
					benchThreads(b, vm, n, func(g int, th *jthread.Thread) {
						wl.Op(th, seeds[g].next(g))
					})
				})
			}
		}
	}
}

// BenchmarkFig14Jbb sweeps the SPECjbb substitute (one warehouse per
// thread).
func BenchmarkFig14Jbb(b *testing.B) {
	for _, impl := range workload.PaperImpls {
		for _, n := range sweepThreads {
			b.Run(fmt.Sprintf("%s/t%d", impl, n), func(b *testing.B) {
				bench := jbb.New(impl, n)
				vm := jthread.NewVM()
				seeds := make([]benchSeed, n)
				benchThreads(b, vm, n, func(g int, th *jthread.Thread) {
					bench.Op(th, g, seeds[g].next(g))
				})
			})
		}
	}
}

// --- Figures 12–14 on the 16-way coherence model ---

// BenchmarkFig12to14Simulated regenerates the 16-core scalability shapes
// on the coherence simulator and reports normalized throughput and failure
// ratio per point.
func BenchmarkFig12to14Simulated(b *testing.B) {
	curves := []struct {
		name      string
		writePct  int
		bodyReads int
		fine      bool
	}{
		{"HashMap0", 0, 6, false},
		{"HashMap5", 5, 6, false},
		{"HashMap5fine", 5, 6, true},
		{"TreeMap0", 0, 20, false},
		{"TreeMap5", 5, 20, false},
		{"SPECjbb", 100 - jbb.ReadOnlyPct, 10, true},
	}
	for _, c := range curves {
		for _, proto := range []simcoherence.Protocol{simcoherence.ProtoMutex, simcoherence.ProtoRW, simcoherence.ProtoSolero} {
			for _, cores := range []int{1, 16} {
				b.Run(fmt.Sprintf("%s/%s/c%d", c.name, proto, cores), func(b *testing.B) {
					cfg := simcoherence.DefaultConfig()
					cfg.Protocol = proto
					cfg.WritePct = c.writePct
					cfg.BodyReads = c.bodyReads
					cfg.Cores = cores
					if c.fine {
						cfg.Shards = cores
						if cfg.DataLines < cfg.Shards {
							cfg.DataLines = cfg.Shards
						}
					}
					cfg.Duration = 200_000
					var last simcoherence.Result
					for i := 0; i < b.N; i++ {
						r, err := simcoherence.Run(cfg)
						if err != nil {
							b.Fatal(err)
						}
						last = r
					}
					b.ReportMetric(last.OpsPerKCycle, "ops/kcycle")
					b.ReportMetric(last.FailureRatio(), "failure_%")
				})
			}
		}
	}
}

// --- Figure 15 ---

// BenchmarkFig15FailureRatio runs the SOLERO configurations of Figure 15
// and reports the speculation failure ratio as a metric, on counted locks
// (the ratio's denominator, ElisionAttempts, is absent on uncounted ones).
func BenchmarkFig15FailureRatio(b *testing.B) {
	counted := core.CountedConfig(nil)
	cases := []struct {
		name string
		make func(n int) (op func(g int, th *jthread.Thread), ratio func() float64)
	}{
		{"HashMap5", func(n int) (func(int, *jthread.Thread), func() float64) {
			wl := workload.NewMapBenchConfig(workload.Hash, workload.ImplSolero, 5, 1024, 1, counted)
			seeds := make([]benchSeed, n)
			return func(g int, th *jthread.Thread) {
				wl.Op(th, seeds[g].next(g))
			}, wl.FailureRatio
		}},
		{"TreeMap5", func(n int) (func(int, *jthread.Thread), func() float64) {
			wl := workload.NewMapBenchConfig(workload.Tree, workload.ImplSolero, 5, 1024, 1, counted)
			seeds := make([]benchSeed, n)
			return func(g int, th *jthread.Thread) {
				wl.Op(th, seeds[g].next(g))
			}, wl.FailureRatio
		}},
		{"SPECjbb", func(n int) (func(int, *jthread.Thread), func() float64) {
			bench := jbb.NewWithConfig(workload.ImplSolero, n, counted)
			seeds := make([]benchSeed, n)
			return func(g int, th *jthread.Thread) {
				bench.Op(th, g, seeds[g].next(g))
			}, bench.FailureRatio
		}},
	}
	for _, c := range cases {
		for _, n := range sweepThreads {
			b.Run(fmt.Sprintf("%s/t%d", c.name, n), func(b *testing.B) {
				op, ratio := c.make(n)
				vm := jthread.NewVM()
				benchThreads(b, vm, n, op)
				b.ReportMetric(ratio(), "failure_%")
			})
		}
	}
}

// --- Figure 16 ---

// BenchmarkFig16Dacapo runs the DaCapo profiles under Lock and SOLERO.
func BenchmarkFig16Dacapo(b *testing.B) {
	for _, p := range dacapo.Profiles {
		for _, impl := range []workload.Impl{workload.ImplLock, workload.ImplSolero} {
			b.Run(p.Name+"/"+impl.String(), func(b *testing.B) {
				bench := dacapo.New(p, impl)
				vm := jthread.NewVM()
				seeds := make([]benchSeed, 2)
				benchThreads(b, vm, 2, func(g int, th *jthread.Thread) {
					bench.Op(th, seeds[g].next(g))
				})
			})
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationFallback varies the elision retry budget before
// fallback (paper: 1) under a contended 5%-writes map.
func BenchmarkAblationFallback(b *testing.B) {
	for _, maxFailures := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("retries%d", maxFailures), func(b *testing.B) {
			cfg := *core.DefaultConfig
			cfg.MaxElisionFailures = maxFailures
			lock := core.New(core.CountedConfig(&cfg)) // counted: reports its failure ratio
			var a, c atomic.Uint64
			vm := jthread.NewVM()
			seeds := make([]benchSeed, 4)
			benchThreads(b, vm, 4, func(g int, th *jthread.Thread) {
				if seeds[g].next(g)%100 < 5 {
					lock.Sync(th, func() { a.Add(1); c.Add(1) })
				} else {
					var d uint64
					lock.ReadOnly(th, func() { d = a.Load() - c.Load() })
					seeds[g].sink += d
				}
			})
			b.ReportMetric(lock.Stats().FailureRatio(), "failure_%")
			b.ReportMetric(float64(lock.Stats().Fallbacks.Load()), "fallbacks")
		})
	}
}

// BenchmarkAblationReadMostly compares the §5 upgrade protocol against
// always-locking for a section that writes 5% of the time.
func BenchmarkAblationReadMostly(b *testing.B) {
	for _, useExt := range []bool{true, false} {
		name := "extension"
		if !useExt {
			name = "alwaysLock"
		}
		b.Run(name, func(b *testing.B) {
			lock := core.New(nil)
			var v atomic.Uint64
			vm := jthread.NewVM()
			seeds := make([]benchSeed, 2)
			benchThreads(b, vm, 2, func(g int, th *jthread.Thread) {
				write := seeds[g].next(g)%100 < 5
				var got uint64
				if useExt {
					lock.ReadMostly(th, func(s *core.Section) {
						if write {
							s.BeforeWrite()
							v.Add(1)
							return
						}
						got = v.Load()
					})
				} else {
					lock.Sync(th, func() {
						if write {
							v.Add(1)
							return
						}
						got = v.Load()
					})
				}
				seeds[g].sink += got
			})
		})
	}
}

// BenchmarkAblationCheckpoint varies the forced checkpoint validation
// period inside a loop-heavy elided section.
func BenchmarkAblationCheckpoint(b *testing.B) {
	for _, every := range []uint64{0, 64, 1024} {
		b.Run(fmt.Sprintf("every%d", every), func(b *testing.B) {
			lock := core.New(nil)
			vm := jthread.NewVM()
			benchThreads(b, vm, 1, func(g int, th *jthread.Thread) {
				th.SetForceValidateEvery(every)
				lock.ReadOnly(th, func() {
					for i := 0; i < 32; i++ {
						th.Checkpoint()
					}
				})
			})
		})
	}
}

// BenchmarkAblationSpinTiers varies the three-tier contention parameters
// under a contended writing workload.
func BenchmarkAblationSpinTiers(b *testing.B) {
	tiers := []struct {
		name                string
		tier1, tier2, tier3 int
	}{{"small", 4, 2, 1}, {"default", 32, 16, 4}, {"large", 128, 64, 8}}
	for _, tc := range tiers {
		b.Run(tc.name, func(b *testing.B) {
			cfg := *core.DefaultConfig
			cfg.Tier1, cfg.Tier2, cfg.Tier3 = tc.tier1, tc.tier2, tc.tier3
			lock := core.New(&cfg)
			var x int
			vm := jthread.NewVM()
			benchThreads(b, vm, 4, func(g int, th *jthread.Thread) {
				lock.Sync(th, func() { x++ })
			})
			b.ReportMetric(float64(lock.Stats().Inflations.Load()), "inflations")
		})
	}
}

// BenchmarkRmap measures the public read-mostly map: elided gets, locked
// puts, and the GetOrCompute hit path.
func BenchmarkRmap(b *testing.B) {
	b.Run("Get", func(b *testing.B) {
		vm := jthread.NewVM()
		th := vm.Attach("bench")
		m := rmap.New[int64](16, nil)
		for k := int64(0); k < 1024; k++ {
			m.Put(th, k, k)
		}
		b.ResetTimer()
		sink := uint64(0)
		for i := 0; i < b.N; i++ {
			v, _ := m.Get(th, int64(i)%1024)
			sink += uint64(v)
		}
		benchSink.Store(sink)
	})
	b.Run("Put", func(b *testing.B) {
		vm := jthread.NewVM()
		th := vm.Attach("bench")
		m := rmap.New[int64](16, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Put(th, int64(i)%1024, int64(i))
		}
	})
	b.Run("GetOrComputeHit", func(b *testing.B) {
		vm := jthread.NewVM()
		th := vm.Attach("bench")
		m := rmap.New[int64](16, nil)
		compute := func() int64 { return 7 }
		m.GetOrCompute(th, 5, compute)
		b.ResetTimer()
		sink := uint64(0)
		for i := 0; i < b.N; i++ {
			sink += uint64(m.GetOrCompute(th, 5, compute))
		}
		benchSink.Store(sink)
	})
}

// --- Reader scaling (the write-free read fast path) ---

// readerCounts sweeps 1 → GOMAXPROCS in powers of two, always ending at
// GOMAXPROCS.
func readerCounts() []int {
	maxr := runtime.GOMAXPROCS(0)
	var out []int
	for n := 1; n < maxr; n *= 2 {
		out = append(out, n)
	}
	return append(out, maxr)
}

// BenchmarkReaderScaling sweeps read-only critical sections (Empty,
// HashMap get, TreeMap get) over reader counts. An elided read writes no
// shared line — its one counter bump lands in the reading thread's own
// counter page — so Empty throughput should scale with readers instead of
// flattening on counter-line ping-pong. The harness writes no shared line
// either: each reader steps its own padded seed and sinks the value it
// read into its own padded slot, after the section.
func BenchmarkReaderScaling(b *testing.B) {
	modes := []struct {
		name    string
		metrics bool
	}{
		{"ownedStats", false},
		// The observability pipeline on: per-stripe histograms and abort
		// taxonomy behind a sampled gate. Must track ownedStats — the
		// registry adds no shared cache-line writes to the success path.
		{"ownedStatsMetrics", true},
	}
	sections := []struct {
		name string
		mk   func(cfg *core.Config) func(th *jthread.Thread, rnd uint64) uint64
	}{
		{"Empty", func(cfg *core.Config) func(*jthread.Thread, uint64) uint64 {
			l := core.New(cfg)
			return func(th *jthread.Thread, _ uint64) uint64 {
				l.ReadOnly(th, func() {})
				return 0
			}
		}},
		{"HashMap", func(cfg *core.Config) func(*jthread.Thread, uint64) uint64 {
			l := core.New(cfg)
			m := hashmap.New[int64](2048)
			for k := int64(0); k < 1024; k++ {
				m.Put(k, k)
			}
			return func(th *jthread.Thread, rnd uint64) uint64 {
				k := int64(rnd % 1024)
				var v int64
				l.ReadOnly(th, func() { v, _ = m.Get(k) })
				return uint64(v)
			}
		}},
		{"TreeMap", func(cfg *core.Config) func(*jthread.Thread, uint64) uint64 {
			l := core.New(cfg)
			m := treemap.New[int64]()
			for k := int64(0); k < 1024; k++ {
				m.Put(k, k)
			}
			return func(th *jthread.Thread, rnd uint64) uint64 {
				k := int64(rnd % 1024)
				var v int64
				l.ReadOnly(th, func() { v, _ = m.Get(k) })
				return uint64(v)
			}
		}},
	}
	for _, sec := range sections {
		for _, mode := range modes {
			for _, n := range readerCounts() {
				b.Run(fmt.Sprintf("%s/%s/r%d", sec.name, mode.name, n), func(b *testing.B) {
					cfg := *core.DefaultConfig
					if mode.metrics {
						cfg.Metrics = metrics.New(0)
					}
					op := sec.mk(&cfg)
					vm := jthread.NewVM()
					seeds := make([]benchSeed, n)
					start := time.Now()
					benchThreads(b, vm, n, func(g int, th *jthread.Thread) {
						seeds[g].sink += op(th, seeds[g].next(g))
					})
					if el := time.Since(start).Seconds(); el > 0 {
						b.ReportMetric(float64(b.N)/el, "ops/s")
					}
				})
			}
		}
	}
}

// BenchmarkReaderScalingMetricsOverhead asserts the observability claim the
// metrics registry makes: recording latency histograms and the abort
// taxonomy costs the write-free read fast path at most 10% throughput at
// full reader parallelism. The registry's only success-path work is one
// nil-check plus a per-stripe sampled gate, so metrics-on must stay within
// noise of metrics-off; a bigger gap means a shared cache-line write crept
// onto the elided path. Fewer than 4 CPUs cannot exhibit the contention
// this guards against, so the benchmark skips there. Each mode's
// throughput is the best of 3 fixed wall-clock windows.
func BenchmarkReaderScalingMetricsOverhead(b *testing.B) {
	if runtime.NumCPU() < 4 {
		b.Skipf("need >= 4 CPUs for a meaningful overhead bound, have %d", runtime.NumCPU())
	}
	readers := runtime.GOMAXPROCS(0)
	const window = 100 * time.Millisecond

	measure := func(reg *metrics.Registry) float64 {
		cfg := *core.DefaultConfig
		cfg.Metrics = reg
		l := core.New(&cfg)
		best := 0.0
		for round := 0; round < 3; round++ {
			var stop atomic.Bool
			var ops atomic.Uint64
			vm := jthread.NewVM()
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := vm.Attach("bench")
					defer th.Detach()
					n := uint64(0)
					for !stop.Load() {
						l.ReadOnly(th, func() {})
						n++
					}
					ops.Add(n)
				}()
			}
			start := time.Now()
			time.Sleep(window)
			stop.Store(true)
			wg.Wait()
			if rate := float64(ops.Load()) / time.Since(start).Seconds(); rate > best {
				best = rate
			}
		}
		return best
	}

	b.ResetTimer()
	off := measure(nil)
	on := measure(metrics.New(0))
	ratio := on / off
	b.ReportMetric(ratio, "on/off")
	b.ReportMetric(on, "metricsOn-ops/s")
	b.ReportMetric(off, "metricsOff-ops/s")
	if ratio < 0.90 {
		b.Fatalf("metrics-on read path lost %.1f%% throughput at %d readers (on %.0f ops/s, off %.0f ops/s); budget is 10%%",
			100*(1-ratio), readers, on, off)
	}
}

// --- Proof-carrying elision (solerovet facts → runtime) ---

// BenchmarkReadOnly measures the read-only section entry through the
// proof-carrying SectionRegistry and asserts the facts pipeline's
// acceptance property: a statically proven section performs zero dynamic
// classifications, while the unproven twin pays the probe window. The
// proven variant also exercises the recovery-free lean path (no
// speculative frame, no panic handler).
func BenchmarkReadOnly(b *testing.B) {
	proofs := &facts.File{
		Module: "bench",
		Sections: []facts.Section{{
			ID: "bench:get", Pkg: "bench", Func: "get", Mode: "ReadOnlySection",
			Class: facts.ClassElidable, RecoveryFree: true, MaxRetries: 1,
		}},
	}
	run := func(b *testing.B, reg *core.SectionRegistry) {
		vm := jthread.NewVM()
		th := vm.Attach("bench")
		defer th.Detach()
		l := core.New(nil)
		info := reg.Section("bench:get")
		// The empty body of every BenchmarkMicroLocks read row, so
		// factsProven reads as a path cost beside SoleroReadOnlySectionLean.
		fn := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.ReadOnlySection(th, info, fn)
		}
	}

	b.Run("unproven", func(b *testing.B) {
		reg := core.NewSectionRegistry(false, 0, nil)
		run(b, reg)
		if got := reg.DynamicClassifications(); got == 0 {
			b.Fatal("unproven section paid no dynamic classifications; the probe window is gone")
		}
		b.ReportMetric(float64(reg.DynamicClassifications()), "dynclass")
	})
	b.Run("factsProven", func(b *testing.B) {
		reg := core.NewSectionRegistry(false, 0, nil)
		if n := facts.SeedRegistry(reg, proofs); n != 1 {
			b.Fatalf("seeded %d sections, want 1", n)
		}
		run(b, reg)
		if got := reg.DynamicClassifications(); got != 0 {
			b.Fatalf("facts-proven section paid %d dynamic classifications, want 0", got)
		}
		b.ReportMetric(0, "dynclass")
	})
}

// BenchmarkReadOnlyAllocFree asserts each elided read entry performs zero
// heap allocations (testing.AllocsPerRun), then times it: ReadOnly, a
// value-returning section through solero.ReadOnly (the generic speculative
// frame), the recovery-free lean path of a facts-proven ReadOnlySection,
// and a ReadMostly section that does not write.
func BenchmarkReadOnlyAllocFree(b *testing.B) {
	vm := jthread.NewVM()
	th := vm.Attach("bench")
	defer th.Detach()
	lean := core.NewSectionRegistry(false, 0, nil).Seed("bench:lean", core.ProofElidable, true, 1)
	fn := func() {}
	valFn := func() uint64 { return 1 }
	rmFn := func(*core.Section) {}
	for _, bc := range []struct {
		name string
		op   func(l *core.Lock)
	}{
		{"ReadOnly", func(l *core.Lock) { l.ReadOnly(th, fn) }},
		{"ReadOnlyValue", func(l *core.Lock) { benchSink.Store(solero.ReadOnly(l, th, valFn)) }},
		{"ReadOnlySectionLean", func(l *core.Lock) { l.ReadOnlySection(th, lean, fn) }},
		{"ReadMostlyNoWrite", func(l *core.Lock) { l.ReadMostly(th, rmFn) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			l := core.New(nil)
			bc.op(l) // warm the thread's per-thread section state
			if allocs := testing.AllocsPerRun(1000, func() { bc.op(l) }); allocs != 0 {
				b.Fatalf("%s allocates: %v allocs/run", bc.name, allocs)
			}
			b.ReportMetric(0, "allocs/run")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.op(l)
			}
		})
	}
}

// BenchmarkReadOnlyAllocFreeMetrics repeats the allocation proof with the
// metrics registry wired in. Period1 forces sampling to every section by
// setting the registry's period before the lock is built (the `lockstats
// -sample-period 1` route) — the worst case where each read pushes the EndCS defer and
// records into the cs_duration histogram. The default-period cases are the
// metered hook-free attempt: 63 of 64 sections tick the sampler and
// speculate as if no registry were wired, ReadOnlyValue (through
// solero.ReadOnly) in its own frame. All stay at zero heap allocations.
func BenchmarkReadOnlyAllocFreeMetrics(b *testing.B) {
	vm := jthread.NewVM()
	th := vm.Attach("bench")
	defer th.Detach()
	fn := func() {}
	valFn := func() uint64 { return 1 }
	for _, bc := range []struct {
		name   string
		period int // 0 keeps the registry's default
		op     func(l *core.Lock)
	}{
		{"Period1/ReadOnly", 1, func(l *core.Lock) { l.ReadOnly(th, fn) }},
		{"DefaultPeriod/ReadOnly", 0, func(l *core.Lock) { l.ReadOnly(th, fn) }},
		{"DefaultPeriod/ReadOnlyValue", 0, func(l *core.Lock) { benchSink.Store(solero.ReadOnly(l, th, valFn)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			reg := metrics.New(0)
			if bc.period > 0 {
				reg.SetSamplePeriod(bc.period)
			}
			cfg := *core.DefaultConfig
			cfg.Metrics = reg
			l := core.New(&cfg)
			bc.op(l)
			if allocs := testing.AllocsPerRun(1000, func() { bc.op(l) }); allocs != 0 {
				b.Fatalf("metrics-on %s allocates: %v allocs/run", bc.name, allocs)
			}
			b.ReportMetric(0, "allocs/run")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.op(l)
			}
		})
	}
}

// --- Substrate microbenchmarks ---

// BenchmarkMicroLocks measures the raw per-operation cost of each lock
// primitive, uncontended, with no fence model.
func BenchmarkMicroLocks(b *testing.B) {
	vm := jthread.NewVM()
	th := vm.Attach("bench")
	defer th.Detach()

	b.Run("SoleroReadOnly", func(b *testing.B) {
		l := core.New(nil)
		for i := 0; i < b.N; i++ {
			l.ReadOnly(th, func() {})
		}
	})
	b.Run("SoleroReadOnlyValue", func(b *testing.B) {
		l := core.New(nil)
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += solero.ReadOnly(l, th, func() uint64 { return 1 })
		}
		benchSink.Store(sum)
	})
	// The section rows run the same empty body under a static proof: lean
	// is ProofElidable and recovery-free (no speculative frame), annotated
	// is author-asserted (full frame). Beside SoleroReadOnly they show
	// what the proof saves.
	sections := core.NewSectionRegistry(false, 0, nil)
	lean := sections.Seed("bench:lean", core.ProofElidable, true, 0)
	annotated := sections.Seed("bench:annotated", core.ProofAnnotated, false, 0)
	b.Run("SoleroReadOnlySectionLean", func(b *testing.B) {
		l := core.New(nil)
		for i := 0; i < b.N; i++ {
			l.ReadOnlySection(th, lean, func() {})
		}
	})
	b.Run("SoleroReadOnlySectionAnnotated", func(b *testing.B) {
		l := core.New(nil)
		for i := 0; i < b.N; i++ {
			l.ReadOnlySection(th, annotated, func() {})
		}
	})
	// The metered rows wire a registry at the default sample period; set
	// beside their metrics-off rows above they give the metrics budget.
	metered := func() *core.Lock {
		cfg := *core.DefaultConfig
		cfg.Metrics = metrics.New(0)
		return core.New(&cfg)
	}
	b.Run("SoleroReadOnlyMetrics", func(b *testing.B) {
		l := metered()
		for i := 0; i < b.N; i++ {
			l.ReadOnly(th, func() {})
		}
	})
	b.Run("SoleroReadOnlyValueMetrics", func(b *testing.B) {
		l := metered()
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += solero.ReadOnly(l, th, func() uint64 { return 1 })
		}
		benchSink.Store(sum)
	})
	b.Run("SoleroWrite", func(b *testing.B) {
		l := core.New(nil)
		for i := 0; i < b.N; i++ {
			l.Lock(th)
			l.Unlock(th)
		}
	})
	b.Run("SoleroReadMostlyNoWrite", func(b *testing.B) {
		l := core.New(nil)
		for i := 0; i < b.N; i++ {
			l.ReadMostly(th, func(*core.Section) {})
		}
	})
	b.Run("ConventionalLock", func(b *testing.B) {
		l := vmlock.New(nil)
		for i := 0; i < b.N; i++ {
			l.Lock(th)
			l.Unlock(th)
		}
	})
	// Go's own locks are the reference rows: the uncontended cost the
	// elided read and the SOLERO write are compared against.
	b.Run("SyncMutex", func(b *testing.B) {
		var l sync.Mutex
		for i := 0; i < b.N; i++ {
			l.Lock()
			l.Unlock()
		}
	})
	b.Run("SyncRWMutexRLock", func(b *testing.B) {
		var l sync.RWMutex
		for i := 0; i < b.N; i++ {
			l.RLock()
			l.RUnlock()
		}
	})
	// The parallel rows run two readers (b.RunParallel at -cpu 2, or
	// GOMAXPROCS) on one lock: where concurrent readers' counts land is
	// what separates an elided read from a reader count.
	b.Run("SoleroReadOnlyParallel", func(b *testing.B) {
		l := core.New(nil)
		pvm := jthread.NewVM()
		b.RunParallel(func(pb *testing.PB) {
			th := pvm.Attach("reader")
			defer th.Detach()
			for pb.Next() {
				l.ReadOnly(th, func() {})
			}
		})
	})
	b.Run("SyncRWMutexRLockParallel", func(b *testing.B) {
		var l sync.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				l.RLock()
				l.RUnlock()
			}
		})
	})
	b.Run("RWLockRead", func(b *testing.B) {
		var l rwlock.RWLock
		for i := 0; i < b.N; i++ {
			l.RLock(th)
			l.RUnlock(th)
		}
	})
	b.Run("SeqLockRead", func(b *testing.B) {
		var l seqlock.SeqLock
		for i := 0; i < b.N; i++ {
			l.Read(func() {})
		}
	})
	b.Run("SoleroReentrantWrite", func(b *testing.B) {
		l := core.New(nil)
		l.Lock(th)
		for i := 0; i < b.N; i++ {
			l.Lock(th)
			l.Unlock(th)
		}
		l.Unlock(th)
		if lockword.SoleroCounter(l.Word()) != 1 {
			b.Fatalf("counter advanced by reentrant sections")
		}
	})
}

// BenchmarkNeighborLocks measures what a neighbouring lock's writer costs
// an elided read: one goroutine runs writing sections on lock A while the
// benchmark's goroutine runs elided reads on lock B (run with -cpu 2). In
// the same-line row A and B are consecutive New calls on one cache line; in
// the separate-lines row at least one whole line lies between them (out of
// reach of an adjacent-line prefetch). ns/op is B's read; write-ns/op is
// A's writing section over the same window.
func BenchmarkNeighborLocks(b *testing.B) {
	for _, row := range []struct {
		name     string
		sameLine bool
	}{{"same-line", true}, {"separate-lines", false}} {
		b.Run(row.name, func(b *testing.B) {
			a, r := neighborPair(b, row.sameLine)
			vm := jthread.NewVM()
			wt, rt := vm.Attach("writer"), vm.Attach("reader")
			defer wt.Detach()
			defer rt.Detach()
			var stop atomic.Bool
			writes := make(chan int)
			go func() {
				n := 0
				for !stop.Load() {
					a.Lock(wt)
					a.Unlock(wt)
					n++
				}
				writes <- n
			}()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				r.ReadOnly(rt, func() {})
			}
			elapsed := time.Since(start)
			b.StopTimer()
			stop.Store(true)
			if n := <-writes; n > 0 {
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(n), "write-ns/op")
			}
		})
	}
}

// neighborPair returns two fresh locks, on one cache line or at least two
// lines apart.
func neighborPair(b *testing.B, sameLine bool) (*core.Lock, *core.Lock) {
	line := func(l *core.Lock) int64 { return int64(uintptr(unsafe.Pointer(l)) / stats.CacheLine) }
	for try := 0; try < 64; try++ {
		x, y := core.New(nil), core.New(nil)
		if sameLine && line(x) == line(y) {
			return x, y
		}
		for !sameLine && line(y)-line(x) < 2 && line(x)-line(y) < 2 {
			y = core.New(nil)
		}
		if !sameLine {
			return x, y
		}
	}
	b.Fatal("no two consecutive locks shared a cache line")
	return nil, nil
}

// BenchmarkLockNew measures what building one lock costs, with the
// configuration the many-locks workload of bench/ gives its 65,536 locks:
// the default protocol, fat mode renting from the workload's own monitor
// table. It is the per-lock term of that workload's setup_s; B/op is the
// lock's footprint.
func BenchmarkLockNew(b *testing.B) {
	cfg := *core.DefaultConfig
	cfg.Monitors = montable.New(montable.Config{})
	locks := make([]*solero.Lock, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		locks[i%len(locks)] = solero.NewLock(&cfg)
	}
	runtime.KeepAlive(locks)
}

// BenchmarkLockFirstUse measures what a lock costs once it is used: New,
// then a read and a write by each of two threads. Beside BenchmarkLockNew
// it shows what moved from New to the first use. On a counted lock that is
// the stats id, its finalizer, and each thread's slot (a counter page only
// when the id opens a page the thread has not touched); an uncounted lock
// (the default) takes none of them.
func BenchmarkLockFirstUse(b *testing.B) {
	base := *core.DefaultConfig
	base.Monitors = montable.New(montable.Config{})
	for _, row := range []struct {
		name string
		cfg  *core.Config
	}{
		{"counted", core.CountedConfig(&base)},
		{"uncounted", &base},
	} {
		b.Run(row.name, func(b *testing.B) {
			vm := jthread.NewVM()
			t1, t2 := vm.Attach("first"), vm.Attach("second")
			defer t1.Detach()
			defer t2.Detach()
			locks := make([]*solero.Lock, 4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := solero.NewLock(row.cfg)
				l.ReadOnly(t1, func() {})
				l.Sync(t1, func() {})
				l.ReadOnly(t2, func() {})
				l.Sync(t2, func() {})
				locks[i%len(locks)] = l
			}
			runtime.KeepAlive(locks)
		})
	}
}

// BenchmarkHashMap measures the map under the HashMap workloads with no lock
// around it: Build1024 is ro-hashmap's build (1,024 distinct keys from
// capacity 0, through every resize; allocs/op is about one node per key),
// GetHit a lookup of a present key, PutReplace a replacement (one
// allocation, the new value's box).
func BenchmarkHashMap(b *testing.B) {
	keys := make([]int64, 1024)
	seen := make(map[int64]bool, len(keys))
	x := uint64(1)
	for i := range keys {
		for {
			x = x*6364136223846793005 + 1442695040888963407
			if k := int64(x >> 24); !seen[k] {
				seen[k], keys[i] = true, k
				break
			}
		}
	}
	build := func() *hashmap.Map[int64] {
		m := hashmap.New[int64](0)
		for _, k := range keys {
			m.Put(k, k)
		}
		return m
	}
	b.Run("Build1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if build().Len() != len(keys) {
				b.Fatal("lost a key")
			}
		}
	})
	b.Run("GetHit", func(b *testing.B) {
		m := build()
		var sum int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := m.Get(keys[i&(len(keys)-1)])
			sum += v
		}
		benchSink.Add(uint64(sum))
	})
	b.Run("PutReplace", func(b *testing.B) {
		m := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i&(len(keys)-1)]
			m.Put(k, k+int64(i))
		}
	})
}

// BenchmarkMicroInterp measures the JIT substrate: method dispatch and
// elided synchronized execution through the interpreter.
func BenchmarkMicroInterp(b *testing.B) {
	prog := jit.MustBuild(`
class C {
	int x;
	int get() { synchronized (this) { return x; } }
	void set(int v) { synchronized (this) { x = v; } }
	static int add(int a, int bb) { return a + bb; }
}`, codegen.DefaultOptions)

	b.Run("StaticCall", func(b *testing.B) {
		vm := jthread.NewVM()
		m := interp.NewMachine(prog, vm, interp.Options{})
		th := vm.Attach("bench")
		for i := 0; i < b.N; i++ {
			m.MustCall(th, "C", "add", interp.IntVal(1), interp.IntVal(2))
		}
	})
	b.Run("ElidedGet", func(b *testing.B) {
		vm := jthread.NewVM()
		m := interp.NewMachine(prog, vm, interp.Options{Protocol: interp.ProtoSolero})
		th := vm.Attach("bench")
		obj, _ := m.NewInstance("C")
		recv := interp.ObjVal(obj)
		for i := 0; i < b.N; i++ {
			m.MustCall(th, "C", "get", recv)
		}
	})
	b.Run("LockedSet", func(b *testing.B) {
		vm := jthread.NewVM()
		m := interp.NewMachine(prog, vm, interp.Options{Protocol: interp.ProtoSolero})
		th := vm.Attach("bench")
		obj, _ := m.NewInstance("C")
		recv := interp.ObjVal(obj)
		for i := 0; i < b.N; i++ {
			m.MustCall(th, "C", "set", recv, interp.IntVal(int64(i)))
		}
	})
}
