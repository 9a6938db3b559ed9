// Quickstart: guard a shared map with a SOLERO lock and see read-only
// critical sections complete without writing the lock word.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/collections/hashmap"
	"repro/solero"
)

func main() {
	vm := solero.NewVM()
	// A counted lock, so the elision counters printed below are kept: a
	// default lock's elided read writes nothing, not even a count.
	lock := solero.NewLock(solero.CountedConfig(nil))
	table := hashmap.New[string](64)

	var wg sync.WaitGroup

	// Writer: occasional updates under the writing protocol. Each
	// release publishes a fresh sequence counter in the lock word.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := vm.Attach("writer")
		defer t.Detach()
		for i := int64(0); i < 1000; i++ {
			lock.Sync(t, func() {
				table.Put(i%10, fmt.Sprintf("value-%d", i))
			})
		}
	}()

	// Readers: lookups as elided read-only sections. The section body may
	// chase pointers and loop — restrictions a raw seqlock would impose
	// do not apply; inconsistent speculative reads are detected and
	// retried automatically.
	var found, missing atomic.Uint64
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t := vm.Attach(fmt.Sprintf("reader-%d", r))
			defer t.Detach()
			for i := int64(0); i < 5000; i++ {
				ok := solero.ReadOnly(lock, t, func() bool {
					_, ok := table.Get(i % 10)
					return ok
				})
				if ok {
					found.Add(1)
				} else {
					missing.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()

	st := lock.Stats()
	fmt.Printf("lookups: %d found, %d missing\n", found.Load(), missing.Load())
	fmt.Printf("elisions: %d attempted, %d succeeded, %d failed, %d fallbacks\n",
		st.ElisionAttempts.Load(), st.ElisionSuccesses.Load(),
		st.ElisionFailures.Load(), st.Fallbacks.Load())
	fmt.Printf("writer acquisitions: %d fast, %d slow\n",
		st.FastAcquires.Load(), st.SlowAcquires.Load())
	fmt.Printf("final lock word: %#x (free, counter = writing sections executed)\n", lock.Word())
}
