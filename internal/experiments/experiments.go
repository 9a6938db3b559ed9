// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Table 1's lock statistics, Figure 10's Empty-benchmark
// overhead decomposition, Figure 11's single-thread comparison, Figures
// 12–14's multi-thread sweeps (HashMap, TreeMap, SPECjbb-sim), Figure 15's
// speculation failure ratios, and Figure 16's DaCapo profiles.
//
// The multi-thread figures run in two modes: real execution (goroutines on
// the host, faithful protocol costs but bounded by physical cores) and the
// simcoherence model (Power6-like 16-way cache behavior). EXPERIMENTS.md
// records both against the paper's reported shapes.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/harness"
	"repro/internal/jbb"
	"repro/internal/jit/codegen"
	"repro/internal/jthread"
	"repro/internal/memmodel"
	"repro/internal/simcoherence"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options scales all experiments.
type Options struct {
	// Harness is the measurement protocol configuration.
	Harness harness.Options
	// Threads are the sweep points of the multi-thread figures.
	Threads []int
	// Entries is the map size (paper: 1024).
	Entries int
	// UseSim regenerates multi-thread figures on the coherence simulator
	// instead of real goroutines.
	UseSim bool
	// SimDuration is the simulated window, in cycles.
	SimDuration int64
}

// DefaultOptions is a CI-scale configuration of the paper's setup.
func DefaultOptions() Options {
	return Options{
		Harness: harness.Options{
			Duration:      50 * time.Millisecond,
			Runs:          3,
			InnerMeasures: 3,
			Warmup:        20 * time.Millisecond,
		},
		Threads:     []int{1, 2, 4, 8, 16},
		Entries:     1024,
		SimDuration: 2_000_000,
	}
}

// measure runs one worker configuration.
func measure(o Options, threads int, w harness.Worker) float64 {
	vm := jthread.NewVM()
	h := o.Harness
	h.Threads = threads
	return harness.Measure(vm, h, w).OpsPerSec
}

// Table1 reproduces the lock-statistics table: lock frequency (Mlocks/s)
// and read-only percentage per benchmark, measured by instrumented SOLERO
// runs on counted locks (core.CountedConfig), whose FastAcquires and
// ElisionAttempts the read-only share is computed from (every benchmark here
// maps each operation to a known number of lock operations, so the
// frequency is ops-derived).
func Table1(o Options) *stats.Table {
	counted := core.CountedConfig(nil)
	t := &stats.Table{
		Title: "Table 1: Lock statistics",
		Cols:  []string{"Benchmark", "Lock freq (Mlocks/s)", "Read-only locks (%)"},
	}
	type bench struct {
		name       string
		run        func() (opsPerSec float64, total, readOnly uint64)
		locksPerOp float64
	}
	mapBench := func(kind workload.MapKind, writePct int) func() (float64, uint64, uint64) {
		return func() (float64, uint64, uint64) {
			b := workload.NewMapBenchConfig(kind, workload.ImplSolero, writePct, o.Entries, 1, counted)
			ops := measure(o, 1, b.Worker())
			total, ro := b.LockOps()
			return ops, total, ro
		}
	}
	benches := []bench{
		{name: "Empty", locksPerOp: 1, run: func() (float64, uint64, uint64) {
			e := workload.NewEmptyConfig(workload.ImplSolero, counted)
			ops := measure(o, 1, e.Worker())
			st := e.G.SoleroStats()
			ro := st.ElisionAttempts.Load()
			return ops, ro + st.FastAcquires.Load() + st.SlowAcquires.Load(), ro
		}},
		{name: "HashMap (0% writes)", locksPerOp: 1, run: mapBench(workload.Hash, 0)},
		{name: "HashMap (5% writes)", locksPerOp: 1, run: mapBench(workload.Hash, 5)},
		{name: "TreeMap (0% writes)", locksPerOp: 1, run: mapBench(workload.Tree, 0)},
		{name: "TreeMap (5% writes)", locksPerOp: 1, run: mapBench(workload.Tree, 5)},
		{name: "SPECjbb-sim", locksPerOp: 1, run: func() (float64, uint64, uint64) {
			b := jbb.NewWithConfig(workload.ImplSolero, 1, counted)
			ops := measure(o, 1, b.Worker())
			total, ro := b.LockOps()
			return ops, total, ro
		}},
	}
	for _, p := range dacapo.Profiles {
		p := p
		benches = append(benches, bench{name: p.Name, locksPerOp: float64(p.LocksPerOp),
			run: func() (float64, uint64, uint64) {
				b := dacapo.NewConfig(p, workload.ImplSolero, counted)
				ops := measure(o, 1, b.Worker())
				total, ro := b.LockOps()
				return ops, total, ro
			}})
	}
	for _, b := range benches {
		ops, total, ro := b.run()
		lockFreq := ops * b.locksPerOp / 1e6
		roPct := 0.0
		if total > 0 {
			roPct = 100 * float64(ro) / float64(total)
		}
		t.AddRow(b.name, fmt.Sprintf("%.2f", lockFreq), fmt.Sprintf("%.1f", roPct))
	}
	return t
}

// Fig10 reproduces the Empty-benchmark overhead comparison: execution time
// per empty synchronized block, normalized to the conventional lock. The
// first table runs Lock, RWLock, SOLERO and Unelided-SOLERO natively. The
// second is the fence ablation, which has no native form (Go's atomics are
// sequentially consistent): Lock, SOLERO and WeakBarrier-SOLERO on the
// coherence simulator, one core, with the Power fence plans charged.
func Fig10(o Options) ([]*stats.Table, error) {
	t := &stats.Table{
		Title: "Figure 10: Normalized execution time of Empty (to Lock)",
		Cols:  []string{"Implementation", "Normalized time", "ops/s"},
	}
	base := 0.0
	for _, impl := range workload.Fig10Impls {
		e := workload.NewEmpty(impl)
		ops := measure(o, 1, e.Worker())
		if impl == workload.ImplLock {
			base = ops
		}
		norm := 0.0
		if ops > 0 {
			norm = base / ops
		}
		t.AddRow(impl.String(), fmt.Sprintf("%.3f", norm), fmt.Sprintf("%.0f", ops))
	}
	sim, err := fig10Fences(o)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t, sim}, nil
}

// fig10Fences is Figure 10's fence ablation on the coherence model: an
// empty section, back to back on one core, under the conventional lock's
// Power plan (Lock), SOLERO's (SOLERO), and SOLERO with the conventional
// lock's weaker fences (WeakBarrier-SOLERO).
func fig10Fences(o Options) (*stats.Table, error) {
	conv, sol, err := codegen.FencePlans("power")
	if err != nil {
		return nil, err
	}
	_, weak, err := codegen.FencePlans("power-weak")
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title: "Figure 10: Normalized execution time of Empty (to Lock) [simulated, Power fence costs]",
		Cols:  []string{"Implementation", "Normalized time", "ops/kcycle"},
	}
	base := 0.0
	for _, row := range []struct {
		name   string
		proto  simcoherence.Protocol
		fences memmodel.Plan
	}{
		{"Lock", simcoherence.ProtoMutex, conv},
		{"SOLERO", simcoherence.ProtoSolero, sol},
		{"WeakBarrier-SOLERO", simcoherence.ProtoSolero, weak},
	} {
		cfg := simcoherence.DefaultConfig()
		cfg.Protocol = row.proto
		cfg.BodyReads, cfg.BodyWrites, cfg.ThinkCycles = 0, 0, 0
		cfg.Duration = o.SimDuration
		cfg.Fences = row.fences
		r, err := simcoherence.Run(cfg)
		if err != nil {
			return nil, err
		}
		if row.proto == simcoherence.ProtoMutex {
			base = r.OpsPerKCycle
		}
		// Every simulated section completes, so OpsPerKCycle > 0.
		t.AddRow(row.name, fmt.Sprintf("%.3f", base/r.OpsPerKCycle), fmt.Sprintf("%.1f", r.OpsPerKCycle))
	}
	return t, nil
}

// Fig11 reproduces the single-thread comparison: relative performance (%)
// to the conventional lock for HashMap 0%/5%, TreeMap 0%/5%, and the
// SPECjbb substitute. (The paper does not measure RWLock on SPECjbb2005;
// we do, and EXPERIMENTS.md notes the addition.)
func Fig11(o Options) *stats.Table {
	t := &stats.Table{
		Title: "Figure 11: Single-thread relative performance to Lock (%)",
		Cols:  []string{"Benchmark", "Lock", "RWLock", "SOLERO"},
	}
	row := func(name string, mk func(workload.Impl) harness.Worker) {
		vals := make(map[workload.Impl]float64)
		for _, impl := range workload.PaperImpls {
			vals[impl] = measure(o, 1, mk(impl))
		}
		base := vals[workload.ImplLock]
		rel := func(impl workload.Impl) string {
			if base == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", 100*vals[impl]/base)
		}
		t.AddRow(name, rel(workload.ImplLock), rel(workload.ImplRWLock), rel(workload.ImplSolero))
	}
	for _, cfg := range []struct {
		name     string
		kind     workload.MapKind
		writePct int
	}{
		{"HashMap (0% writes)", workload.Hash, 0},
		{"HashMap (5% writes)", workload.Hash, 5},
		{"TreeMap (0% writes)", workload.Tree, 0},
		{"TreeMap (5% writes)", workload.Tree, 5},
	} {
		cfg := cfg
		row(cfg.name, func(impl workload.Impl) harness.Worker {
			return workload.NewMapBench(cfg.kind, impl, cfg.writePct, o.Entries, 1).Worker()
		})
	}
	row("SPECjbb-sim", func(impl workload.Impl) harness.Worker {
		return jbb.New(impl, 1).Worker()
	})
	return t
}

// mapSweep measures one map configuration across thread counts for each
// implementation, normalized to Lock at 1 thread.
func mapSweep(o Options, kind workload.MapKind, writePct int, fineGrained bool, title string) *stats.Figure {
	fig := &stats.Figure{
		Title:  title,
		XLabel: "# threads",
		YLabel: "throughput normalized to Lock @ 1 thread",
	}
	for _, n := range o.Threads {
		fig.X = append(fig.X, float64(n))
	}
	var base float64
	for _, impl := range workload.PaperImpls {
		ys := make([]float64, 0, len(o.Threads))
		for _, n := range o.Threads {
			shards := 1
			if fineGrained {
				shards = n
			}
			b := workload.NewMapBench(kind, impl, writePct, o.Entries, shards)
			ys = append(ys, measure(o, n, b.Worker()))
		}
		if impl == workload.ImplLock {
			base = ys[0]
		}
		fig.Series = append(fig.Series, stats.Series{Name: impl.String(), Y: stats.Normalize(ys, base)})
	}
	return fig
}

// simCurve describes one simulated benchmark configuration.
type simCurve struct {
	writePct  int
	bodyReads int
	// fineGrained shards the data one lock per core (Figure 12c).
	fineGrained bool
	// coreAffine pins cores to shards (SPECjbb's thread-per-warehouse).
	coreAffine bool
	// think spaces operations; 0 keeps the lock-bound default. The
	// throughput figures run lock-bound (the paper's tight benchmark
	// loops); Figure 15 runs at the measured benchmarks' op spacing —
	// see EXPERIMENTS.md for the calibration note.
	think int64
}

// simSweep regenerates a multi-thread figure on the coherence simulator.
func simSweep(o Options, c simCurve, title string) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  title + " [simulated 16-way]",
		XLabel: "# cores",
		YLabel: "throughput normalized to Lock @ 1 core",
	}
	for _, n := range o.Threads {
		fig.X = append(fig.X, float64(n))
	}
	var base float64
	for _, proto := range []simcoherence.Protocol{simcoherence.ProtoMutex, simcoherence.ProtoRW, simcoherence.ProtoSolero} {
		rs, err := simcoherence.Sweep(simConfig(o, c, proto), o.Threads)
		if err != nil {
			return nil, err
		}
		ys := make([]float64, len(rs))
		for i, r := range rs {
			ys[i] = r.OpsPerKCycle
		}
		if proto == simcoherence.ProtoMutex {
			base = ys[0]
		}
		fig.Series = append(fig.Series, stats.Series{Name: proto.String(), Y: stats.Normalize(ys, base)})
	}
	return fig, nil
}

func simConfig(o Options, c simCurve, proto simcoherence.Protocol) simcoherence.Config {
	cfg := simcoherence.DefaultConfig()
	cfg.Protocol = proto
	cfg.WritePct = c.writePct
	cfg.BodyReads = c.bodyReads
	cfg.Duration = o.SimDuration
	cfg.ShardsFollowCores = c.fineGrained || c.coreAffine
	cfg.CoreAffineShards = c.coreAffine
	if c.think > 0 {
		cfg.ThinkCycles = c.think
	}
	return cfg
}

// Fig12 reproduces the HashMap multi-thread figures: (a) 0% writes,
// (b) 5% writes, (c) 5% writes fine-grained (shards == threads).
func Fig12(o Options) ([]*stats.Figure, error) {
	if o.UseSim {
		a, err := simSweep(o, simCurve{writePct: 0, bodyReads: 6}, "Figure 12(a): HashMap 0% writes")
		if err != nil {
			return nil, err
		}
		b, err := simSweep(o, simCurve{writePct: 5, bodyReads: 6}, "Figure 12(b): HashMap 5% writes")
		if err != nil {
			return nil, err
		}
		c, err := simSweep(o, simCurve{writePct: 5, bodyReads: 6, fineGrained: true}, "Figure 12(c): HashMap 5% writes, fine-grained")
		if err != nil {
			return nil, err
		}
		return []*stats.Figure{a, b, c}, nil
	}
	return []*stats.Figure{
		mapSweep(o, workload.Hash, 0, false, "Figure 12(a): HashMap 0% writes"),
		mapSweep(o, workload.Hash, 5, false, "Figure 12(b): HashMap 5% writes"),
		mapSweep(o, workload.Hash, 5, true, "Figure 12(c): HashMap 5% writes, fine-grained"),
	}, nil
}

// Fig13 reproduces the TreeMap multi-thread figures: (a) 0%, (b) 5% writes.
// TreeMap sections are longer (tree descent), modeled in the simulator by
// more body reads per section.
func Fig13(o Options) ([]*stats.Figure, error) {
	if o.UseSim {
		a, err := simSweep(o, simCurve{writePct: 0, bodyReads: 20}, "Figure 13(a): TreeMap 0% writes")
		if err != nil {
			return nil, err
		}
		b, err := simSweep(o, simCurve{writePct: 5, bodyReads: 20}, "Figure 13(b): TreeMap 5% writes")
		if err != nil {
			return nil, err
		}
		return []*stats.Figure{a, b}, nil
	}
	return []*stats.Figure{
		mapSweep(o, workload.Tree, 0, false, "Figure 13(a): TreeMap 0% writes"),
		mapSweep(o, workload.Tree, 5, false, "Figure 13(b): TreeMap 5% writes"),
	}, nil
}

// Fig14 reproduces the SPECjbb multi-thread figure. In simulator mode the
// per-warehouse isolation is modeled with shards == cores and jbb's
// read-only share.
func Fig14(o Options) (*stats.Figure, error) {
	if o.UseSim {
		fig, err := simSweep(o, simCurve{writePct: 100 - jbb.ReadOnlyPct, bodyReads: 10, coreAffine: true}, "Figure 14: SPECjbb-sim")
		return fig, err
	}
	fig := &stats.Figure{
		Title:  "Figure 14: SPECjbb-sim multi-thread",
		XLabel: "# threads",
		YLabel: "throughput normalized to Lock @ 1 thread",
	}
	for _, n := range o.Threads {
		fig.X = append(fig.X, float64(n))
	}
	var base float64
	for _, impl := range workload.PaperImpls {
		ys := make([]float64, 0, len(o.Threads))
		for _, n := range o.Threads {
			b := jbb.New(impl, n)
			ys = append(ys, measure(o, n, b.Worker()))
		}
		if impl == workload.ImplLock {
			base = ys[0]
		}
		fig.Series = append(fig.Series, stats.Series{Name: impl.String(), Y: stats.Normalize(ys, base)})
	}
	return fig, nil
}

// Fig15 reproduces the speculation-failure-ratio figure for SOLERO:
// HashMap 5%, HashMap 5% fine-grained, TreeMap 5%, and SPECjbb-sim, across
// thread counts.
func Fig15(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Figure 15: SOLERO speculation failure ratio (%)",
		XLabel: "# threads",
		YLabel: "failed elisions / attempts (%)",
	}
	for _, n := range o.Threads {
		fig.X = append(fig.X, float64(n))
	}
	if o.UseSim {
		// Figure 15 runs at the measured benchmarks' operation spacing
		// (roughly 14k cycles/op at Table 1's lock frequencies; we use
		// 1200 think cycles as a conservative stand-in) — the regime in
		// which the paper's failure magnitudes arise. See EXPERIMENTS.md.
		const fig15Think = 1200
		curves := []struct {
			name  string
			curve simCurve
		}{
			{"HashMap 5%", simCurve{writePct: 5, bodyReads: 6, think: fig15Think}},
			{"HashMap 5% fine-grained", simCurve{writePct: 5, bodyReads: 6, fineGrained: true, think: fig15Think}},
			{"TreeMap 5%", simCurve{writePct: 5, bodyReads: 20, think: fig15Think}},
			{"SPECjbb-sim", simCurve{writePct: 100 - jbb.ReadOnlyPct, bodyReads: 10, coreAffine: true, think: fig15Think}},
		}
		for _, c := range curves {
			rs, err := simcoherence.Sweep(simConfig(o, c.curve, simcoherence.ProtoSolero), o.Threads)
			if err != nil {
				return nil, err
			}
			ys := make([]float64, len(rs))
			for i, r := range rs {
				ys[i] = r.FailureRatio()
			}
			fig.Series = append(fig.Series, stats.Series{Name: c.name + " [sim]", Y: ys})
		}
		return fig, nil
	}
	// The native curves run on counted locks: the ratio's denominator,
	// ElisionAttempts, is absent on an uncounted lock.
	counted := core.CountedConfig(nil)
	type mk struct {
		name string
		run  func(n int) float64
	}
	curves := []mk{
		{"HashMap 5%", func(n int) float64 {
			b := workload.NewMapBenchConfig(workload.Hash, workload.ImplSolero, 5, o.Entries, 1, counted)
			measure(o, n, b.Worker())
			return b.FailureRatio()
		}},
		{"HashMap 5% fine-grained", func(n int) float64 {
			b := workload.NewMapBenchConfig(workload.Hash, workload.ImplSolero, 5, o.Entries, n, counted)
			measure(o, n, b.Worker())
			return b.FailureRatio()
		}},
		{"TreeMap 5%", func(n int) float64 {
			b := workload.NewMapBenchConfig(workload.Tree, workload.ImplSolero, 5, o.Entries, 1, counted)
			measure(o, n, b.Worker())
			return b.FailureRatio()
		}},
		{"SPECjbb-sim", func(n int) float64 {
			b := jbb.NewWithConfig(workload.ImplSolero, n, counted)
			measure(o, n, b.Worker())
			return b.FailureRatio()
		}},
	}
	for _, c := range curves {
		ys := make([]float64, 0, len(o.Threads))
		for _, n := range o.Threads {
			ys = append(ys, c.run(n))
		}
		fig.Series = append(fig.Series, stats.Series{Name: c.name, Y: ys})
	}
	return fig, nil
}

// Crossover is an extra analysis beyond the paper's figures: at a fixed
// core count, sweep the write percentage and report SOLERO's throughput
// relative to the conventional lock — locating the write ratio where
// elision stops paying ("under high write contention, fine-grained designs
// may be useful", §7). Simulator-only.
func Crossover(o Options, cores int) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  fmt.Sprintf("Crossover: SOLERO/Lock throughput ratio vs write%%, %d cores [simulated]", cores),
		XLabel: "write %",
		YLabel: "SOLERO throughput / Lock throughput",
	}
	writePcts := []int{0, 1, 2, 5, 10, 20, 35, 50, 75, 100}
	for _, w := range writePcts {
		fig.X = append(fig.X, float64(w))
	}
	ratio := make([]float64, 0, len(writePcts))
	failure := make([]float64, 0, len(writePcts))
	// The spaced-operation regime (the Figure 15 calibration): in the
	// lock-bound regime the failure feedback loop cliffs at the first
	// nonzero write ratio, which compresses the whole curve to ~1.
	const crossoverThink = 1200
	for _, w := range writePcts {
		base := simConfig(o, simCurve{writePct: w, bodyReads: 6, think: crossoverThink}, simcoherence.ProtoMutex)
		base.Cores = cores
		lockRes, err := simcoherence.Run(base)
		if err != nil {
			return nil, err
		}
		sol := simConfig(o, simCurve{writePct: w, bodyReads: 6, think: crossoverThink}, simcoherence.ProtoSolero)
		sol.Cores = cores
		solRes, err := simcoherence.Run(sol)
		if err != nil {
			return nil, err
		}
		r := 0.0
		if lockRes.OpsPerKCycle > 0 {
			r = solRes.OpsPerKCycle / lockRes.OpsPerKCycle
		}
		ratio = append(ratio, r)
		failure = append(failure, solRes.FailureRatio())
	}
	fig.Series = append(fig.Series,
		stats.Series{Name: "SOLERO/Lock", Y: ratio},
		stats.Series{Name: "failure %", Y: failure},
	)
	return fig, nil
}

// Fig16 reproduces the DaCapo comparison: per profile, SOLERO's execution
// time normalized to the conventional lock (paper: |Δ| < 1% everywhere).
func Fig16(o Options) *stats.Table {
	t := &stats.Table{
		Title: "Figure 16: DaCapo-sim, SOLERO time normalized to Lock",
		Cols:  []string{"Benchmark", "Lock ops/s", "SOLERO ops/s", "Normalized time"},
	}
	threads := 2
	for _, p := range dacapo.Profiles {
		lock := measure(o, threads, dacapo.New(p, workload.ImplLock).Worker())
		sol := measure(o, threads, dacapo.New(p, workload.ImplSolero).Worker())
		norm := 0.0
		if sol > 0 {
			norm = lock / sol
		}
		t.AddRow(p.Name, fmt.Sprintf("%.0f", lock), fmt.Sprintf("%.0f", sol), fmt.Sprintf("%.3f", norm))
	}
	return t
}
