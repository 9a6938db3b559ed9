// A memoized computation service built on solero/rmap: hot keys are served
// by fully elided lookups; cold keys install their results in place via the
// read-mostly upgrade. The kind of component the paper's read-mostly
// pattern (§1) is about.
//
//	go run ./examples/rmapcache
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/solero"
	"repro/solero/rmap"
)

// expensive is the function being memoized.
func expensive(k int64) int64 {
	v := k
	for i := 0; i < 1000; i++ {
		v = v*6364136223846793005 + 1442695040888963407
	}
	return v
}

func main() {
	vm := solero.NewVM()
	// Counted shard locks, so the elision counters printed below are kept.
	cache := rmap.New[int64](16, solero.CountedConfig(nil))

	const (
		workers  = 4
		requests = 30000
		keySpace = 512 // small: high hit rate after warmup
	)
	var computed, served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := vm.Attach(fmt.Sprintf("worker-%d", w))
			defer t.Detach()
			seed := uint64(w)*2654435761 + 17
			for i := 0; i < requests; i++ {
				seed = seed*6364136223846793005 + 1
				k := int64(seed % keySpace)
				got := cache.GetOrCompute(t, k, func() int64 {
					computed.Add(1)
					return expensive(k)
				})
				if got != expensive(k) {
					panic("wrong memoized value")
				}
				served.Add(1)
			}
		}(w)
	}
	wg.Wait()

	st := cache.Stats()
	fmt.Printf("served %d requests over %d keys; computed %d values (%.1f%% hit rate)\n",
		served.Load(), keySpace, computed.Load(),
		100*(1-float64(computed.Load())/float64(served.Load())))
	fmt.Printf("elided executions: %d/%d (%.2f%% failed), %d in-place upgrades, %d fallbacks\n",
		st.ElisionSuccesses, st.ElisionAttempts,
		100*float64(st.ElisionFailures)/float64(st.ElisionAttempts),
		st.Upgrades, st.Fallbacks)
}
