// A read-mostly ordered index: the paper's TreeMap scenario as a library
// user would write it. Point lookups, ordered range scans, and floor
// queries all run as elided read-only sections; inserts and deletes take
// the writing protocol. The example compares SOLERO against the
// conventional monitor lock on the same index shape.
//
//	go run ./examples/treemapindex
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collections/treemap"
	"repro/internal/jthread"
	"repro/solero"
)

const (
	keySpace = 2048
	readers  = 4
	runFor   = 300 * time.Millisecond
)

type index struct {
	sol  *solero.Lock
	mon  *solero.MonitorLock
	data *treemap.Map[int64]
}

// newIndex builds the index with both locks at their default settings, the
// SOLERO lock counted so that its elision counters are kept for the report.
func newIndex() *index {
	ix := &index{sol: solero.NewLock(solero.CountedConfig(nil)), mon: solero.NewMonitorLock(nil), data: treemap.New[int64]()}
	for k := int64(0); k < keySpace; k += 2 {
		ix.data.Put(k, k*10)
	}
	return ix
}

// run drives the index with one writer and several readers for a fixed
// window, using either the SOLERO lock or the conventional monitor.
func run(useSolero bool) (reads uint64, ix *index) {
	ix = newIndex()
	vm := solero.NewVM()
	vm.StartAsyncEvents(time.Millisecond) // infinite-loop recovery (§3.3)
	defer vm.StopAsyncEvents()

	read := func(t *jthread.Thread, fn func()) {
		if useSolero {
			ix.sol.ReadOnly(t, fn)
		} else {
			ix.mon.Sync(t, fn)
		}
	}
	write := func(t *jthread.Thread, fn func()) {
		if useSolero {
			ix.sol.Sync(t, fn)
		} else {
			ix.mon.Sync(t, fn)
		}
	}

	var stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup

	// Writer: churn odd keys (inserts and deletes) at a bounded rate,
	// keeping even keys stable for verification. The pacing keeps the
	// read-mostly regime the paper targets — an unthrottled writer on a
	// single CPU would spend half its wall time inside critical sections
	// (and get preempted there), which is a write-heavy workload, not a
	// read-mostly one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := vm.Attach("writer")
		defer t.Detach()
		for i := int64(1); !stop.Load(); i += 2 {
			k := i % keySpace
			write(t, func() {
				if _, ok := ix.data.Get(k); ok {
					ix.data.Remove(k)
				} else {
					ix.data.Put(k, k*10)
				}
			})
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t := vm.Attach("reader")
			defer t.Detach()
			seed := uint64(r)*40503 + 1
			var n uint64
			for !stop.Load() {
				seed = seed*6364136223846793005 + 1
				k := int64(seed % keySpace)
				switch seed >> 32 % 3 {
				case 0: // point lookup
					read(t, func() {
						if v, ok := ix.data.Get(k &^ 1); ok && v != (k&^1)*10 {
							panic(fmt.Sprintf("stable key %d corrupted: %d", k&^1, v))
						}
					})
				case 1: // floor query
					read(t, func() { ix.data.FloorKey(k) })
				default: // bounded ordered scan with checkpoints
					read(t, func() {
						count := 0
						key, ok := ix.data.CeilingKey(k)
						for ok && count < 16 {
							count++
							t.Checkpoint() // loop back-edge poll
							key, ok = ix.data.CeilingKey(key + 1)
						}
					})
				}
				n++
			}
			total.Add(n)
		}(r)
	}

	time.Sleep(runFor)
	stop.Store(true)
	wg.Wait()
	return total.Load(), ix
}

func main() {
	monReads, _ := run(false)
	solReads, ix := run(true)
	fmt.Printf("monitor: %8d reads   SOLERO: %8d reads  (%.2fx)\n",
		monReads, solReads, float64(solReads)/float64(monReads))

	st := ix.sol.Stats()
	fmt.Printf("SOLERO: %d/%d elisions succeeded, %.2f%% failed, %d fallbacks, %d async aborts\n",
		st.ElisionSuccesses.Load(), st.ElisionAttempts.Load(),
		st.FailureRatio(), st.Fallbacks.Load(), st.AsyncAborts.Load())

	// Verify the stable half of the key space survived the churn.
	for k := int64(0); k < keySpace; k += 2 {
		if v, ok := ix.data.Get(k); !ok || v != k*10 {
			panic(fmt.Sprintf("stable key %d lost or corrupted", k))
		}
	}
	fmt.Println("index verified: all stable keys intact")
}
