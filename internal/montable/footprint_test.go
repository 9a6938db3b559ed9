package montable_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/montable"
)

// TestFootprintSteadyState allocates a population of each shipping lock,
// runs skewed Zipf contention over it with the sweeper live, quiesces, and
// asserts that the heap the run leaves behind, beyond the population's own
// allocation, stays under 48 bytes/lock with no monitor bound: monitor
// state deflates back to the shared table instead of accreting per lock.
// (The bound is the slack of the old 64-bytes/lock total on 16-byte
// session objects.) MONTABLE_FOOTPRINT_LOCKS overrides the population
// (the 1M-lock `make montable-smoke` assert and larger manual runs).
func TestFootprintSteadyState(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 50_000
	}
	if s := os.Getenv("MONTABLE_FOOTPRINT_LOCKS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad MONTABLE_FOOTPRINT_LOCKS=%q", s)
		}
		n = v
	}
	forEachLock(t, func(t *testing.T, k lockKind) {
		tb := montable.New(montable.Config{Shards: 8, IdleEpochs: 2, SweepInterval: time.Millisecond})
		newLock := k.maker(tb)

		const threads = 4
		baseline := heapAlloc()
		locks := make([]lock, n)
		for i := range locks {
			locks[i] = newLock()
		}
		payload := make([]uint64, n)
		ths := attach(threads)
		allocated := heapAlloc() - baseline

		// Skewed churn: hot head inflates and deflates constantly, long
		// tail stays flat.
		ops := 40_000
		if testing.Short() {
			ops = 10_000
		}
		var lat []time.Duration
		var latMu sync.Mutex
		tb.Start()
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(idx int) {
				defer wg.Done()
				th := ths[idx]
				rng := rand.New(rand.NewSource(int64(idx) + 7))
				zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(n-1))
				samples := make([]time.Duration, 0, ops/64+1)
				for op := 0; op < ops; op++ {
					li := zipf.Uint64()
					sampled := op%64 == 0
					var start time.Time
					if sampled {
						start = time.Now()
					}
					locks[li].Lock(th)
					payload[li]++
					if op%8 == 0 {
						runtime.Gosched()
					}
					locks[li].Unlock(th)
					if sampled {
						samples = append(samples, time.Since(start))
					}
				}
				latMu.Lock()
				lat = append(lat, samples...)
				latMu.Unlock()
			}(i)
		}
		wg.Wait()
		tb.Stop()

		// Quiesce and measure the steady state.
		for i := 0; i < 5; i++ {
			tb.Sweep(0)
		}
		steady := heapAlloc() - baseline
		perLock := func(b int64) float64 { return float64(b) / float64(n) }
		residue := perLock(int64(steady) - int64(allocated))
		st := tb.Snapshot()
		t.Logf("%s, %d locks: allocated %.1f bytes/lock, steady %.1f bytes/lock, residue %.1f bytes/lock, bound at rest %d (capacity %d, churn: binds=%d rebinds=%d sweepDeflations=%d reclaims=%d+%d)",
			k.name, n, perLock(int64(allocated)), perLock(int64(steady)), residue, st.Bound, st.Capacity,
			st.Binds, st.Rebinds, st.SweepDeflations, st.SweepReclaims, st.ReleaseReclaims)
		t.Logf("acquire latency: %s", percentiles(lat))

		var sum uint64
		for _, p := range payload {
			sum += p
		}
		if sum != threads*uint64(ops) {
			t.Fatalf("payload sum %d, want %d: a section ran without mutual exclusion", sum, threads*ops)
		}
		if residue >= 48 {
			t.Fatalf("steady-state residue %.1f bytes/lock breaches the 48-byte bound", residue)
		}
		if st.Bound != 0 {
			t.Fatalf("%d monitors still bound after quiescence", st.Bound)
		}
		if inflations(st) == 0 {
			t.Fatal("footprint run never inflated — measured nothing")
		}
		if deflationChurn(st) == 0 {
			t.Fatal("footprint run produced no deflation churn — measured nothing")
		}
		runtime.KeepAlive(locks)
	})
}

// heapAlloc returns live heap bytes after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// percentiles formats p50/p99/max for a latency sample set.
func percentiles(lat []time.Duration) string {
	if len(lat) == 0 {
		return "(no samples)"
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pick := func(q float64) time.Duration { return lat[int(q*float64(len(lat)-1))] }
	return fmt.Sprintf("p50=%v p99=%v max=%v (%d samples)", pick(0.5), pick(0.99), lat[len(lat)-1], len(lat))
}
