package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/solero"
)

// Every round of a run has this shape: a warmup, then roundWindows measured
// windows of roundWindow. A worker that makes no progress for stallAfter is
// a stall. Span files and stall dumps go to outDir.
const (
	roundWarmup   = 500 * time.Millisecond
	roundWindow   = time.Second
	roundWindows  = 3
	roundMeasured = roundWindows * roundWindow
	stallAfter    = 5 * time.Second
	outDir        = "out"

	// defaultSeconds is an untraced run's measured time per workload.
	defaultSeconds = 30
)

// roundConfig is one round: a fresh system, a closed loop of one worker per
// GOMAXPROCS, a warmup, then fixed measured windows. Tests shorten it.
type roundConfig struct {
	wl         *workload
	seed       int64
	round      int
	workers    int
	warmup     time.Duration
	window     time.Duration
	windows    int
	traced     bool
	stallAfter time.Duration
	outDir     string
}

func newRound(wl *workload, seed int64, round int, traced bool) roundConfig {
	return roundConfig{
		wl: wl, seed: seed, round: round, workers: runtime.GOMAXPROCS(0),
		warmup: roundWarmup, window: roundWindow, windows: roundWindows,
		traced: traced, stallAfter: stallAfter, outDir: outDir,
	}
}

// roundResult is everything one round measured. A child process prints it as
// its last line of output.
type roundResult struct {
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced,omitempty"`

	// Noisy and Rerun are set by the orchestrator: the calibration loop
	// moved by more than noisyShare within a noisy round, and a rerun
	// replaces it. Used marks the rounds the reported medians come from.
	Noisy bool `json:"noisy,omitempty"`
	Rerun bool `json:"rerun,omitempty"`
	Used  bool `json:"used"`

	Stalled    bool   `json:"stalled,omitempty"`
	StallDump  string `json:"stall_dump,omitempty"`
	AuditError string `json:"audit_error,omitempty"`

	ClockFloorNs float64 `json:"clock_floor_ns"`
	CalibStartNs float64 `json:"calib_start_ns"`
	CalibEndNs   float64 `json:"calib_end_ns"`

	SetupS    float64 `json:"setup_s"`
	SetupReps int     `json:"setup_reps"`
	LockBytes float64 `json:"lock_bytes"`

	WindowOpsPerS []float64 `json:"window_ops_per_s"`
	OpsPerS       float64   `json:"ops_per_s"`
	ReadP50Ns     float64   `json:"read_p50_ns"`
	ReadP99Ns     float64   `json:"read_p99_ns"`
	WriteP50Ns    float64   `json:"write_p50_ns"`
	WriteP99Ns    float64   `json:"write_p99_ns"`
	ReadSamples   uint64    `json:"read_samples"`
	WriteSamples  uint64    `json:"write_samples"`

	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`

	// Layer holds the counter metrics; Spans, in a traced round, the
	// span-derived ones.
	Layer map[string]float64 `json:"layer"`
	Spans map[string]float64 `json:"spans,omitempty"`
}

// The shared phase is phaseWarmup, then the index of the measured window,
// then phaseStop.
const (
	phaseWarmup int32 = -1
	phaseStop   int32 = -2
)

// Each round builds its system at least setupReps times and until the
// builds add up to setupMinTime, at most setupMaxReps times, and its setup_s
// is the mean build. A sub-millisecond build on a shared host reads about
// 1.5 times slower while another tenant is busy, in phases of tens of
// milliseconds; the mean over a round's builds weighs those phases by their
// share instead of snapping to one of the two speeds as a median would.
const (
	setupReps    = 5
	setupMinTime = 50 * time.Millisecond
	setupMaxReps = 200
)

// timeEvery times 1 in timeEvery ops with two clock reads.
const timeEvery = 16

// progress is one worker's op count, published every timeEvery ops; it
// drives the window rates and the stall watchdog.
type progress struct {
	n        atomic.Uint64
	finished atomic.Bool
	_        [112]byte
}

// workLoop is a closed loop over the worker's cyclic op stream. Timed ops
// land in lat[window][0] (reads) or lat[window][1] (writes).
func workLoop(w worker, stream []op, prog *progress, phase *atomic.Int32, lat [][2]hist, tr *tracer) {
	mask := uint64(len(stream) - 1)
	var i uint64
	for {
		for range timeEvery - 1 {
			w.do(stream[i&mask], false)
			i++
		}
		ph := phase.Load()
		traced := tr != nil && ph >= 0 && i&(traceEvery-1) == timeEvery-1
		start := time.Now()
		if traced {
			tr.begin(i, start)
		}
		write := w.do(stream[i&mask], traced)
		d := time.Since(start)
		if traced {
			tr.end(write)
		}
		i++
		if ph >= 0 {
			k := 0
			if write {
				k = 1
			}
			lat[ph][k].record(int64(d))
		}
		prog.n.Store(i)
		if ph == phaseStop {
			return
		}
	}
}

// runRound builds the system, runs the closed loop and audits the result. On
// a stall it dumps every goroutine's stack and returns at once, leaving the
// stuck workers behind: the caller must end the process.
func runRound(cfg roundConfig) roundResult {
	res := roundResult{Workload: cfg.wl.name, Round: cfg.round, Seed: cfg.seed, Traced: cfg.traced}
	res.ClockFloorNs = clockFloor()
	res.CalibStartNs = calibrate()
	in := cfg.wl.gen(cfg.seed, cfg.workers)
	res.LockBytes = lockBytes(cfg.wl.lockConfig())

	var sys system
	var built time.Duration
	for res.SetupReps < setupMaxReps && (res.SetupReps < setupReps || built < setupMinTime) {
		sys = nil
		runtime.GC()
		start := time.Now()
		sys = cfg.wl.build(in)
		built += time.Since(start)
		res.SetupReps++
	}
	res.SetupS = built.Seconds() / float64(res.SetupReps)

	var phase, ready atomic.Int32
	phase.Store(phaseWarmup)
	prog := make([]progress, cfg.workers)
	lats := make([][][2]hist, cfg.workers)
	trs := make([]*tracer, cfg.workers)
	ws := make([]worker, cfg.workers)
	base := time.Now()
	for i := range trs {
		if cfg.traced {
			trs[i] = newTracer(base)
		}
	}
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer prog[i].finished.Store(true)
			// Workers spin at a start barrier and then build their
			// per-thread state, so each allocates it while running on
			// its own P. Allocated back to back from one goroutine, two
			// threads' speculative-frame stacks can share a cache line,
			// and that false sharing halves ro-hashmap throughput in a
			// random subset of runs (README.md).
			ready.Add(1)
			for ready.Load() < int32(cfg.workers) {
			}
			ws[i], lats[i] = sys.worker(i, trs[i]), make([][2]hist, cfg.windows)
			workLoop(ws[i], in.streams[i], &prog[i], &phase, lats[i], trs[i])
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	wd := newWatchdog(prog, cfg.stallAfter)
	total := func() uint64 {
		var n uint64
		for i := range prog {
			n += prog[i].n.Load()
		}
		return n
	}
	stall := func(stuck int) roundResult {
		res.Stalled = true
		res.StallDump = dumpStacks(cfg)
		res.Attempted = total() + uint64(stuck)
		res.Failed = uint64(stuck) // in-flight ops of the stuck workers
		return res
	}

	if stuck := wd.sleepUntil(time.Now().Add(cfg.warmup), nil); stuck > 0 {
		return stall(stuck)
	}
	var ms0, ms1 runtime.MemStats
	c0 := sys.counters()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	n0 := total()
	prev, prevT := n0, t0
	for k := range cfg.windows {
		phase.Store(int32(k))
		if stuck := wd.sleepUntil(t0.Add(time.Duration(k+1)*cfg.window), nil); stuck > 0 {
			return stall(stuck)
		}
		now, n := time.Now(), total()
		res.WindowOpsPerS = append(res.WindowOpsPerS, float64(n-prev)/now.Sub(prevT).Seconds())
		prev, prevT = n, now
	}
	phase.Store(phaseStop)
	c1 := sys.counters()
	runtime.ReadMemStats(&ms1)
	secs := prevT.Sub(t0).Seconds()
	measuredOps := prev - n0
	if stuck := wd.sleepUntil(time.Time{}, done); stuck > 0 {
		return stall(stuck)
	}

	var writes uint64
	for _, w := range ws {
		f, wr := w.totals()
		res.Failed += f
		writes += wr
	}
	res.Attempted = total()
	res.OpsPerS = median(res.WindowOpsPerS)
	res.ReadP50Ns, res.ReadP99Ns, res.ReadSamples = windowQuantiles(lats, 0)
	res.WriteP50Ns, res.WriteP99Ns, res.WriteSamples = windowQuantiles(lats, 1)
	res.Layer = counterMetrics(c0, c1, &ms0, &ms1, measuredOps, secs)
	if cfg.traced {
		res.Spans = traceMetrics(trs)
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.wl.name, cfg.seed))
		if err := writeChromeTrace(path, cfg.wl.name, trs); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing trace:", err)
		}
	}
	if err := sys.audit(writes); err != nil {
		res.AuditError = err.Error()
	}
	res.CalibEndNs = calibrate()
	return res
}

// windowQuantiles merges the workers' histograms of one kind window by
// window and returns the medians over windows of each window's p50 and p99,
// which a burst of interference confined to a few windows does not move,
// and the sample count.
func windowQuantiles(lats [][][2]hist, kind int) (p50, p99 float64, samples uint64) {
	var p50s, p99s []float64
	for k := range lats[0] {
		var h hist
		for _, l := range lats {
			h.merge(&l[k][kind])
		}
		if h.count > 0 {
			p50s, p99s = append(p50s, h.quantile(0.5)), append(p99s, h.quantile(0.99))
			samples += h.count
		}
	}
	return median(p50s), median(p99s), samples
}

// counterMetrics turns counter deltas over the measured windows into the
// per-layer counter metrics.
func counterMetrics(c0, c1 counters, ms0, ms1 *runtime.MemStats, ops uint64, secs float64) map[string]float64 {
	per := func(n uint64, d float64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d
	}
	mops := float64(ops) / 1e6
	m := map[string]float64{
		"core.elision_failure_pct":   100 * per(c1.elisionFailures-c0.elisionFailures, float64(c1.elisionAttempts-c0.elisionAttempts)),
		"core.fallbacks_per_mop":     per(c1.fallbacks-c0.fallbacks, mops),
		"core.inflations_per_s":      per(c1.inflations-c0.inflations, secs),
		"core.fat_enter_share":       per(c1.fatEnters-c0.fatEnters, float64(ops)),
		"core.spin_acquire_share":    per(c1.spinAcquires-c0.spinAcquires, float64(ops)),
		"core.flc_waits_per_s":       per(c1.flcWaits-c0.flcWaits, secs),
		"runtime.gc_cycles":          float64(ms1.NumGC - ms0.NumGC),
		"runtime.alloc_bytes_per_op": per(ms1.TotalAlloc-ms0.TotalAlloc, float64(ops)),
	}
	for i, cause := range abortCauses {
		m["metrics.abort."+cause.String()] = per(c1.aborts[i]-c0.aborts[i], mops)
	}
	return m
}

// watchdog flags a stall when some worker's progress counter has not moved
// for stallAfter.
type watchdog struct {
	prog       []progress
	last       []uint64
	lastMove   []time.Time
	stallAfter time.Duration
}

func newWatchdog(prog []progress, stallAfter time.Duration) *watchdog {
	now := time.Now()
	w := &watchdog{prog: prog, last: make([]uint64, len(prog)), lastMove: make([]time.Time, len(prog)), stallAfter: stallAfter}
	for i := range w.lastMove {
		w.lastMove[i] = now
	}
	return w
}

// sleepUntil waits for the deadline (or, with a zero deadline, for done to
// close) while watching progress. It returns the number of stuck workers,
// 0 when the wait ended normally.
func (w *watchdog) sleepUntil(deadline time.Time, done <-chan struct{}) int {
	const tick = 50 * time.Millisecond
	for {
		now := time.Now()
		if !deadline.IsZero() && !now.Before(deadline) {
			return 0
		}
		stuck := 0
		for i := range w.prog {
			if w.prog[i].finished.Load() {
				continue
			}
			if n := w.prog[i].n.Load(); n != w.last[i] {
				w.last[i], w.lastMove[i] = n, now
			} else if now.Sub(w.lastMove[i]) >= w.stallAfter {
				stuck++
			}
		}
		if stuck > 0 {
			return stuck
		}
		d := tick
		if !deadline.IsZero() {
			d = min(d, deadline.Sub(now))
		}
		select {
		case <-done:
			return 0
		case <-time.After(d):
		}
	}
}

// dumpStacks writes every goroutine's stack to <out>/stall-<wl>-<round>.txt
// and returns the path ("" if it could not be written).
func dumpStacks(cfg roundConfig) string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("stall-%s-%d.txt", cfg.wl.name, cfg.round))
	if err := os.MkdirAll(cfg.outDir, 0o755); err == nil {
		err = os.WriteFile(path, buf, 0o644)
		if err == nil {
			return path
		}
	}
	fmt.Fprintf(os.Stderr, "bench: stall in %s round %d; could not write %s\n%s", cfg.wl.name, cfg.round, path, buf)
	return ""
}

// --- environment sentinel ---

var calibSink uint64

// calibrate times a fixed pure-CPU loop; the median of 15 runs, so that one
// interrupted run does not move it, is the round's env.calib_ns. A round
// whose start and end readings differ by more than noisyShare ran on a
// machine whose speed changed under it.
func calibrate() float64 {
	ds := make([]float64, 15)
	for i := range ds {
		x := uint64(88172645463325252)
		start := time.Now()
		for range 1 << 18 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ds[i] = float64(time.Since(start).Nanoseconds())
		calibSink += x
	}
	return median(ds)
}

const noisyShare = 0.10

// clockFloor is the median cost of two back-to-back clock reads: the
// constant every timed op's latency includes.
func clockFloor() float64 {
	ds := make([]float64, 1001)
	for i := range ds {
		a := time.Now()
		ds[i] = float64(time.Since(a).Nanoseconds())
	}
	return median(ds)
}

// lockBytes is the heap one lock built with cfg costs: the allocation delta
// of creating lockProbeN locks, divided by lockProbeN.
func lockBytes(cfg *solero.Config) float64 {
	const lockProbeN = 4096
	locks := make([]*solero.Lock, lockProbeN)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range locks {
		locks[i] = solero.NewLock(cfg)
	}
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(locks)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / lockProbeN
}

// median is the middle quartile, which is the usual median (0 when empty).
func median(xs []float64) float64 { return quartiles(xs)[1] }
