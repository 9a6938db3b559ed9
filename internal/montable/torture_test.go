package montable_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/montable"
)

// coreNoDeflate is a core.Lock whose fat releases never deflate: every
// inflated word stays inflated until the table's sweeper demotes it, so
// the sweeper's word deflation and reclaim run under churn.
var coreNoDeflate = lockKind{"core-nodeflate", func(tb *montable.Table) func() lock {
	cfg := *core.DefaultConfig
	cfg.Tier1, cfg.Tier2, cfg.Tier3 = 8, 4, 2
	cfg.Deflate = false
	cfg.Monitors = tb
	return func() lock { return core.New(&cfg) }
}}

// TestChurnTorture is the churn-torture suite's centerpiece, run on each
// shipping lock and on core-nodeflate: many locks, skewed Zipf access,
// reentrancy, in-section preemption, and a live background sweeper, with a
// per-lock owner oracle and a completion watchdog. Setting
// MONTABLE_BUG=lost-waiter seeds the force-reset sweeper bug; each shipping
// lock's subtest MUST then fail (the inverted `make montable-smoke` steps
// depend on it).
func TestChurnTorture(t *testing.T) {
	bug := os.Getenv("MONTABLE_BUG") == "lost-waiter"
	for _, k := range append(lockKinds[:len(lockKinds):len(lockKinds)], coreNoDeflate) {
		t.Run(k.name, func(t *testing.T) { churnTorture(t, k, bug) })
	}
}

func churnTorture(t *testing.T, k lockKind, bug bool) {
	cfg := montable.Config{Shards: 8, IdleEpochs: 2, SweepInterval: 500 * time.Microsecond}
	if bug {
		cfg.Bug = montable.BugLostWaiter
		t.Log("MONTABLE_BUG=lost-waiter: this run must fail")
	}
	tb := montable.New(cfg)
	newLock := k.maker(tb)

	nLocks, nThreads, ops := 4096, 8, 30000
	if testing.Short() {
		nLocks, ops = 1024, 8000
	}
	locks := make([]lock, nLocks)
	for i := range locks {
		locks[i] = newLock()
	}
	owners := make([]atomic.Uint64, nLocks)
	ths := attach(nThreads)

	var violations atomic.Uint64
	var firstViolation atomic.Pointer[string]
	report := func(msg string) {
		violations.Add(1)
		s := msg
		firstViolation.CompareAndSwap(nil, &s)
	}

	tb.Start()
	defer tb.Stop()

	doneFlags := make([]atomic.Bool, nThreads)
	var completed atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < nThreads; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			th := ths[idx]
			tid := th.ID()
			defer func() {
				if p := recover(); p != nil {
					report(fmt.Sprintf("t%d panicked: %v", tid, p))
					doneFlags[idx].Store(true)
				}
			}()
			rng := rand.New(rand.NewSource(int64(idx) + 12345))
			// Skewed access: a hot head of locks absorbs most traffic
			// (contention + inflation churn) while the long tail stays
			// mostly flat — the per-user session-lock shape.
			zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(nLocks-1))
			for op := 0; op < ops; op++ {
				li := int(zipf.Uint64())
				l, own := locks[li], &owners[li]
				rec := rng.Intn(3)
				l.Lock(th)
				for r := 0; r < rec; r++ {
					l.Lock(th)
				}
				if !own.CompareAndSwap(0, tid) {
					report(fmt.Sprintf("t%d entered lock %d while t%d held it", tid, li, own.Load()))
				}
				if rng.Intn(8) == 0 {
					runtime.Gosched() // overlap sections on few-core hosts
				}
				if !own.CompareAndSwap(tid, 0) {
					report(fmt.Sprintf("owner oracle corrupted on lock %d", li))
				}
				for r := 0; r < rec; r++ {
					l.Unlock(th)
				}
				l.Unlock(th)
				completed.Add(1)
			}
			doneFlags[idx].Store(true)
		}(i)
	}

	// Watchdog: a wedged thread (lost waiter) shows up as stalled
	// progress — the completed counter stops moving while doneFlags
	// stay down. A 2-minute hard cap backstops slow-but-moving runs.
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	lastDone, lastMove, start := uint64(0), time.Now(), time.Now()
	wedgedRun := false
poll:
	for {
		select {
		case <-finished:
			break poll
		case <-time.After(time.Second):
			if n := completed.Load(); n != lastDone {
				lastDone, lastMove = n, time.Now()
			} else if time.Since(lastMove) > 15*time.Second || time.Since(start) > 2*time.Minute {
				wedgedRun = true
				break poll
			}
		}
	}
	if wedgedRun {
		var wedged []int
		for i := range doneFlags {
			if !doneFlags[i].Load() {
				wedged = append(wedged, i+1)
			}
		}
		st := tb.Snapshot()
		t.Fatalf("churn torture wedged: threads %v never finished (%d/%d ops done) — lost waiters. table: bound=%d pinned=%d sweeps=%d reclaims=%d+%d",
			wedged, completed.Load(), nThreads*ops, st.Bound, st.Pinned, st.Sweeps, st.SweepReclaims, st.ReleaseReclaims)
	}

	if v := violations.Load(); v != 0 {
		t.Fatalf("%d oracle violations; first: %s", v, *firstViolation.Load())
	}

	// Steady state: after the storm plus idle sweeps, the monitor count
	// returns to zero — monitors track contention, not history.
	tb.Stop()
	for i := 0; i < 5; i++ {
		tb.Sweep(0)
	}
	st := tb.Snapshot()
	if st.Bound != 0 {
		t.Fatalf("%d monitors leaked after quiescence (capacity %d)", st.Bound, st.Capacity)
	}
	for i, l := range locks {
		if l.Inflated() {
			t.Fatalf("lock %d still fat after quiescence sweeps", i)
		}
	}
	// The suite must have exercised real churn to mean anything.
	if inflations(st) == 0 {
		t.Fatal("torture run never inflated — the test ran vacuously")
	}
	if deflationChurn(st) == 0 {
		t.Fatal("torture run produced no deflation churn — the test ran vacuously")
	}
	if k.name == coreNoDeflate.name && (st.SweepDeflations == 0 || st.SweepReclaims == 0) {
		t.Fatalf("releases never deflate here, yet the sweeper demoted %d words and reclaimed %d entries — the test ran vacuously",
			st.SweepDeflations, st.SweepReclaims)
	}
	t.Logf("churn: binds=%d rebinds=%d pins=%d stale=%d sweeps=%d sweepDeflations=%d sweepReclaims=%d releaseReclaims=%d peakCapacity=%d",
		st.Binds, st.Rebinds, st.Pins, st.StalePins, st.Sweeps, st.SweepDeflations, st.SweepReclaims, st.ReleaseReclaims, st.Capacity)
}
