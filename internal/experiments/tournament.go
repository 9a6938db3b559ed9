package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/jthread"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// TournamentSchema identifies the BENCH_<date>.json format (documented in
// EXPERIMENTS.md). v2 adds per-point sampled operation-latency percentiles
// and the lowParallelism environment stamp; v1 records stay readable by the
// regression analyzer (Regress accepts any "solero-bench/" schema).
const TournamentSchema = "solero-bench/v2"

// LatencyStats summarizes a sampled operation-latency distribution in
// nanoseconds. Samples is how many latencies the percentiles were computed
// from — consumers should treat small-sample tails with suspicion.
type LatencyStats struct {
	Samples int   `json:"samples"`
	P50Ns   int64 `json:"p50Ns"`
	P99Ns   int64 `json:"p99Ns"`
	P999Ns  int64 `json:"p999Ns"`
	MaxNs   int64 `json:"maxNs"`
	MeanNs  int64 `json:"meanNs"`
}

// NewLatencyStats computes percentiles over the samples (destructively
// sorting them). A nil/empty slice yields the zero value.
func NewLatencyStats(ns []int64) LatencyStats {
	if len(ns) == 0 {
		return LatencyStats{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	pick := func(q float64) int64 { return ns[int(q*float64(len(ns)-1))] }
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return LatencyStats{
		Samples: len(ns),
		P50Ns:   pick(0.5),
		P99Ns:   pick(0.99),
		P999Ns:  pick(0.999),
		MaxNs:   ns[len(ns)-1],
		MeanNs:  sum / int64(len(ns)),
	}
}

// TournamentSeries is one backend's throughput curve over the thread sweep
// of one workload, with its protocol counters at sweep end. Latency (v2)
// is index-aligned with the workload's Threads: one sampled distribution
// per sweep point.
type TournamentSeries struct {
	Backend   string            `json:"backend"`
	OpsPerSec []float64         `json:"opsPerSec"`
	Latency   []LatencyStats    `json:"latency,omitempty"`
	Counters  map[string]uint64 `json:"counters,omitempty"`
}

// latencyRecorder collects sampled per-operation latencies from all worker
// goroutines of one sweep point. Workers batch locally and flush once at
// stop, so the mutex is uncontended during measurement.
type latencyRecorder struct {
	mu sync.Mutex
	ns []int64
}

func (r *latencyRecorder) add(batch []int64) {
	r.mu.Lock()
	r.ns = append(r.ns, batch...)
	r.mu.Unlock()
}

func (r *latencyRecorder) drain() []int64 {
	r.mu.Lock()
	out := r.ns
	r.ns = nil
	r.mu.Unlock()
	return out
}

// TournamentWorkload is one workload's full sweep.
type TournamentWorkload struct {
	// Name is "read-only" or "mixed-<N>w".
	Name     string             `json:"name"`
	WritePct int                `json:"writePct"`
	Threads  []int              `json:"threads"`
	Series   []TournamentSeries `json:"series"`
}

// NativeArch is the Arch stamp of a record whose locks ran natively, with
// no simulated fence costs.
const NativeArch = "none"

// TournamentResult is the durable perf-trajectory record: the whole
// tournament, environment facts included, serialized as BENCH_<date>.json.
// Date is injected by the caller (solerobench -date / make bench-record),
// never read from a clock inside the harness.
type TournamentResult struct {
	Schema     string `json:"schema"`
	Date       string `json:"date,omitempty"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Arch names the fence model the record was taken under. Tournament
	// writes NativeArch; older records carry "power", whose simulated
	// fence charges make them incomparable with native ones (Regress).
	Arch string `json:"arch"`
	// LowParallelism stamps records taken where GOMAXPROCS is below the
	// largest requested thread count: goroutines time-share a processor,
	// so throughput curves measure scheduler fairness, not lock scaling.
	// The regression gate reports such records but never gates on them.
	LowParallelism bool                 `json:"lowParallelism,omitempty"`
	Workloads      []TournamentWorkload `json:"workloads"`
	// Footprint is the session-lock footprint grid (solerobench
	// -footprint), giving the perf trajectory a memory axis alongside
	// throughput.
	Footprint []FootprintPoint `json:"footprint,omitempty"`
}

// tournamentSink defeats dead-code elimination of the read bodies.
var tournamentSink atomic.Uint64

// tournamentLatencySample is the 1-in-N op-latency sampling rate. Two
// clock reads every 64 ops keeps timing overhead far below the op cost
// being measured while still collecting thousands of samples per window.
const tournamentLatencySample = 64

// tournamentWorker builds the reader-scaling worker: each op is a tiny
// guarded read of shared state (the regime where per-acquisition lock
// overhead dominates, i.e. where RWLock's centralized RMW pair collapses
// and BRAVO's slot publish scales), with an optional write mix. Every 64th
// op is timed end-to-end into lat (when non-nil), feeding the v2 schema's
// per-point latency percentiles.
func tournamentWorker(be backend.Backend, writePct int, data []atomic.Uint64, lat *latencyRecorder) harness.Worker {
	n := uint64(len(data))
	return func(i int, th *jthread.Thread, stop *atomic.Bool) uint64 {
		seed := uint64(i)*0x9e3779b97f4a7c15 + 1
		next := func() uint64 {
			seed += 0x9e3779b97f4a7c15
			z := seed
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		var ops, acc uint64
		var samples []int64
		for !stop.Load() {
			x := next()
			sampled := lat != nil && ops%tournamentLatencySample == 0
			var start time.Time
			if sampled {
				start = time.Now()
			}
			if writePct > 0 && int(x>>32%100) < writePct {
				be.WriteSync(th, func() {
					data[0].Add(1)
					data[1].Add(1)
				})
			} else {
				k := x % n
				var v uint64
				// Result leaves the section through a captured local:
				// solero runs this body speculatively, so it must stay
				// write-free and idempotent.
				be.ReadSync(th, func() { v = data[k].Load() })
				acc += v
			}
			if sampled {
				samples = append(samples, time.Since(start).Nanoseconds())
			}
			ops++
		}
		tournamentSink.Add(acc)
		if lat != nil {
			lat.add(samples)
		}
		return ops
	}
}

// Tournament runs every named backend (nil: the full registry) over the
// thread sweep on a pure reader-scaling workload and a 5%-writes mix. One
// backend instance lives for a whole sweep, so adaptive state (BRAVO's
// rebias policy) carries across thread counts exactly as it would in a
// long-running process.
func Tournament(o Options, backends []string) *TournamentResult {
	if backends == nil {
		backends = backend.Names()
	}
	res := &TournamentResult{
		Schema:     TournamentSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Arch:       NativeArch,
		Workloads: []TournamentWorkload{
			{Name: "read-only", WritePct: 0, Threads: o.Threads},
			{Name: "mixed-5w", WritePct: 5, Threads: o.Threads},
		},
	}
	for _, n := range o.Threads {
		if n > res.GoMaxProcs {
			res.LowParallelism = true
		}
	}
	for wi := range res.Workloads {
		w := &res.Workloads[wi]
		for _, name := range backends {
			// Each sweep gets its own registry so the contention taxonomy
			// the backends record through the SPI metrics hooks lands in
			// the series counters. The huge cs_duration sample period
			// keeps the hot read path alloc- and timer-free; contention
			// events are counted unconditionally regardless.
			reg := metrics.New(0)
			reg.SetSamplePeriod(1 << 20)
			be, err := backend.New(name, backend.Options{Metrics: reg})
			if err != nil {
				panic(err) // registry names only; a typo is a programming error
			}
			data := make([]atomic.Uint64, 64)
			lat := &latencyRecorder{}
			worker := tournamentWorker(be, w.WritePct, data, lat)
			vm := jthread.NewVM()
			s := TournamentSeries{Backend: name}
			for _, n := range o.Threads {
				ho := o.Harness
				ho.Threads = n
				r := harness.Measure(vm, ho, worker)
				s.OpsPerSec = append(s.OpsPerSec, r.OpsPerSec)
				// drain() covers this point's warmup and measurement
				// windows — the latency axis is observational, not
				// window-gated like the throughput score.
				s.Latency = append(s.Latency, NewLatencyStats(lat.drain()))
			}
			s.Counters = be.Stats()
			for c := metrics.AbortCause(0); c < metrics.NumAbortCauses; c++ {
				if v := reg.AbortCount(c); v > 0 {
					s.Counters["contention:"+c.String()] = v
				}
			}
			w.Series = append(w.Series, s)
		}
	}
	return res
}

// Figures renders the tournament as one stats.Figure per workload.
func (r *TournamentResult) Figures() []*stats.Figure {
	var figs []*stats.Figure
	for _, w := range r.Workloads {
		f := &stats.Figure{
			Title:  fmt.Sprintf("Backend tournament (%s)", w.Name),
			XLabel: "threads",
			YLabel: "ops/s",
		}
		for _, n := range w.Threads {
			f.X = append(f.X, float64(n))
		}
		for _, s := range w.Series {
			f.Series = append(f.Series, stats.Series{Name: s.Backend, Y: s.OpsPerSec})
		}
		figs = append(figs, f)
	}
	return figs
}
