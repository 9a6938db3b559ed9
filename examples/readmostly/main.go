// Read-mostly extension (§5): a cache whose lookups occasionally install a
// missing entry. The common hit path runs fully elided; a miss upgrades the
// section in place with a single CAS that simultaneously validates every
// read performed so far (Figure 17).
//
//	go run ./examples/readmostly
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/collections/treemap"
	"repro/solero"
)

// cache is a memoized "expensive function" keyed by int.
type cache struct {
	lock *solero.Lock
	data *treemap.Map[int64]
}

func slowCompute(k int64) int64 { return k*k + 7 }

// lookup returns the cached value, installing it on miss via the §5
// upgrade protocol.
func (c *cache) lookup(t *solero.Thread, k int64) int64 {
	var out int64
	c.lock.ReadMostly(t, func(s *solero.Section) {
		if v, ok := c.data.Get(k); ok {
			out = v // hit: pure read, no lock-word write at all
			return
		}
		// Miss: announce the write. On a stale snapshot this re-executes
		// the whole section holding the lock.
		s.BeforeWrite()
		v := slowCompute(k)
		c.data.Put(k, v)
		out = v
	})
	return out
}

func main() {
	vm := solero.NewVM()
	c := &cache{lock: solero.NewLock(solero.CountedConfig(nil)), data: treemap.New[int64]()}

	const workers = 4
	const keySpace = 64 // small key space: high hit rate after warmup
	var wg sync.WaitGroup
	var checks atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := vm.Attach(fmt.Sprintf("worker-%d", w))
			defer t.Detach()
			seed := uint64(w)*2654435761 + 1
			for i := 0; i < 20000; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				k := int64(seed % keySpace)
				if got := c.lookup(t, k); got != slowCompute(k) {
					panic(fmt.Sprintf("wrong cached value for %d: %d", k, got))
				}
				checks.Add(1)
			}
		}(w)
	}
	wg.Wait()

	st := c.lock.Stats()
	fmt.Printf("lookups verified: %d, cache size: %d\n", checks.Load(), c.data.Len())
	fmt.Printf("elided executions: %d succeeded / %d attempted\n",
		st.ElisionSuccesses.Load(), st.ElisionAttempts.Load())
	fmt.Printf("in-place upgrades: %d (failed upgrades re-run holding: %d)\n",
		st.Upgrades.Load(), st.UpgradeFailures.Load())
	fmt.Printf("fallbacks: %d\n", st.Fallbacks.Load())
}
