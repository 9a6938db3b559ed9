package montable_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/montable"
)

// episodeResult is what one churn episode reports.
type episodeResult struct {
	wedged    []uint64 // tids that never finished (lost waiters)
	oracle    []string // mutual-exclusion oracle violations
	panics    []string // recovered protocol panics (stale owner tickets etc.)
	completed uint64
}

func (r episodeResult) failed() bool {
	return len(r.wedged) > 0 || len(r.oracle) > 0 || len(r.panics) > 0
}

func (r episodeResult) String() string {
	return fmt.Sprintf("wedged=%v oracleViolations=%v panics=%v completed=%d",
		r.wedged, r.oracle, r.panics, r.completed)
}

// runChurnEpisode drives nWaiters threads through ops lock/unlock cycles
// on nLocks locks from newLock, all renting from tb, while a chaos thread
// issues random sweeps of tb, with a per-lock CAS owner oracle and a
// two-minute completion watchdog. A lost waiter — a thread parked on a
// monitor the table reclaimed out from under it — shows up as a wedge or
// as a protocol panic: the monitor was reset under its owner and its
// queued enterers.
func runChurnEpisode(tb *montable.Table, newLock func() lock, seed int64, nWaiters, nLocks, ops int) episodeResult {
	rng := rand.New(rand.NewSource(seed))
	locks := make([]lock, nLocks)
	for i := range locks {
		locks[i] = newLock()
	}
	ths := attach(nWaiters)
	owners := make([]atomic.Uint64, nLocks)
	var res episodeResult
	var oracleMu sync.Mutex
	var completed atomic.Uint64

	// Per-thread deterministic op streams (drawn up front: the shared rng
	// is not goroutine-safe).
	type op struct {
		lock  int
		rec   int  // extra reentrant acquisitions
		yield bool // Gosched while holding, forcing real contention
	}
	streams := make([][]op, nWaiters)
	for i := range streams {
		streams[i] = make([]op, ops)
		for j := range streams[i] {
			// Yielding inside the critical section matters on few-core
			// hosts: without it, tiny sections rarely overlap and the
			// inflate/sweep machinery under test never engages.
			streams[i][j] = op{lock: rng.Intn(nLocks), rec: rng.Intn(3), yield: rng.Intn(4) == 0}
		}
	}
	sweepEvery := 1 + rng.Intn(50)

	doneFlags := make([]atomic.Bool, nWaiters)
	var wg sync.WaitGroup
	for i := 0; i < nWaiters; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			th := ths[idx]
			tid := th.ID()
			// A reclaimed-under-the-owner monitor surfaces as a protocol
			// panic (stale owner ticket, exit by non-owner). Recover and
			// record it as a detected failure instead of crashing the
			// test binary.
			defer func() {
				if p := recover(); p != nil {
					oracleMu.Lock()
					res.panics = append(res.panics, fmt.Sprintf("t%d: %v", tid, p))
					oracleMu.Unlock()
					doneFlags[idx].Store(true)
				}
			}()
			for _, o := range streams[idx] {
				l, own := locks[o.lock], &owners[o.lock]
				l.Lock(th)
				for r := 0; r < o.rec; r++ {
					l.Lock(th)
				}
				if !own.CompareAndSwap(0, tid) {
					oracleMu.Lock()
					res.oracle = append(res.oracle, fmt.Sprintf(
						"t%d entered lock %d while t%d held it", tid, o.lock, own.Load()))
					oracleMu.Unlock()
				}
				if o.yield {
					runtime.Gosched()
				}
				if !own.CompareAndSwap(tid, 0) {
					oracleMu.Lock()
					res.oracle = append(res.oracle, fmt.Sprintf("owner oracle corrupted on lock %d", o.lock))
					oracleMu.Unlock()
				}
				for r := 0; r < o.rec; r++ {
					l.Unlock(th)
				}
				l.Unlock(th)
				completed.Add(1)
			}
			doneFlags[idx].Store(true)
		}(i)
	}

	// Chaos sweeper: random sweep bursts racing the workers.
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		i := 0
		for {
			select {
			case <-stopChaos:
				return
			default:
			}
			i++
			if i%sweepEvery == 0 {
				tb.Sweep(uint64(1000 + i))
			}
			time.Sleep(time.Duration(50+seed%7*10) * time.Microsecond)
		}
	}()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		for i := range doneFlags {
			if !doneFlags[i].Load() {
				res.wedged = append(res.wedged, ths[i].ID())
			}
		}
	}
	close(stopChaos)
	chaosWG.Wait()
	res.completed = completed.Load()
	return res
}

// TestRandomInterleavingsNeverLoseWaiters is the property test: across
// seeded random mixes of inflate/deflate/sweep traffic — varying shard
// counts, idle thresholds, and sweep cadence — no waiter is ever lost and
// mutual exclusion holds, on each shipping lock.
func TestRandomInterleavingsNeverLoseWaiters(t *testing.T) {
	seeds := []int64{1, 7, 42, 1337, 99991}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			forEachLock(t, func(t *testing.T, k lockKind) {
				rng := rand.New(rand.NewSource(seed))
				tb := montable.New(montable.Config{
					Shards:     1 << rng.Intn(4),
					IdleEpochs: uint64(1 + rng.Intn(3)),
				})
				res := runChurnEpisode(tb, k.maker(tb), seed, 4+rng.Intn(4), 1+rng.Intn(16), 1500)
				if res.failed() {
					t.Fatalf("seed %d: %s", seed, res)
				}
				// Quiescence: everything returns to flat + empty table.
				for i := 0; i < 4; i++ {
					tb.Sweep(0)
				}
				st := tb.Snapshot()
				if st.Bound != 0 {
					t.Fatalf("seed %d: %d monitors leaked after quiescence sweeps", seed, st.Bound)
				}
				if inflations(st) == 0 {
					t.Fatalf("seed %d: episode never inflated — the property ran vacuously", seed)
				}
				if deflationChurn(st) == 0 {
					t.Fatalf("seed %d: episode produced no deflation churn — the property ran vacuously", seed)
				}
			})
		})
	}
}
