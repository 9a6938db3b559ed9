package hashmap

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/jthread"
)

// staleKeys is the writer's key space: from capacity 1 the map doubles
// twelve times on the way to it.
const staleKeys = 4096

// staleReaders is the number of reader goroutines; each reports at most one
// error.
const staleReaders = 2

// staleRounds is how many times the writer runs its script, each time on a
// fresh map the readers switch to.
const staleRounds = 4

// staleVal encodes its key, so a reader can tell a value that belongs to
// another key from a stale value of its own. Versions start at 1, so a
// value is never 0.
func staleVal(key int64, version int64) int64 { return key<<16 | version }

// growReplaceRemove is the writer's script: insert every key (growing the
// map through every doubling), replacing an earlier key at every other
// step (which re-inserts it if it was removed) and removing every third
// one. It calls write(key, f) around every mutation f of key and returns
// the number of nodes it inserted, at most 2*staleKeys.
func growReplaceRemove(m *Map[int64], write func(key int64, f func())) int {
	inserts := 0
	put := func(k, version int64) {
		write(k, func() {
			if _, had := m.Put(k, staleVal(k, version)); !had {
				inserts++
			}
		})
	}
	for k := int64(0); k < staleKeys; k++ {
		put(k, 1)
		if k%2 == 1 {
			put(k/2, 2)
		}
		if k%3 == 2 {
			write(k-2, func() { m.Remove(k - 2) })
		}
	}
	return inserts
}

// Unsynchronized readers race one writer that grows the map through every
// doubling while replacing and removing keys. No validation discards what
// they see, yet every traversal must end, never fault, and (under -race)
// load every cell it reads through a happens-before edge; a value found
// must be one written for that key.
func TestStaleReadersFinish(t *testing.T) {
	var cur atomic.Pointer[Map[int64]]
	cur.Store(New[int64](1))
	var done atomic.Bool
	var ready sync.WaitGroup
	ready.Add(staleReaders)
	var wg sync.WaitGroup
	errs := make(chan string, staleReaders)
	for r := 0; r < staleReaders; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			ready.Done()
			x := seed
			for i := 0; !done.Load() || i < 100; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				k := int64(x>>33) % staleKeys
				m := cur.Load()
				if v, ok := m.Get(k); ok && v>>16 != k {
					errs <- "Get returned another key's value"
					return
				}
				if i%64 != 0 {
					continue
				}
				visits, paired := 0, true
				m.Range(func(k, v int64) bool {
					visits++
					paired = v>>16 == k
					return paired && visits <= 2*staleKeys
				})
				if !paired {
					errs <- "Range paired a key with another key's value"
					return
				}
				if visits > 2*staleKeys {
					errs <- "Range visited more nodes than the writer inserts"
					return
				}
			}
		}(uint64(r) + 1)
	}
	ready.Wait()
	for round := 0; round < staleRounds; round++ {
		m := New[int64](1)
		cur.Store(m)
		inserts := growReplaceRemove(m, func(_ int64, f func()) { f() })
		if inserts > 2*staleKeys || len(m.table.Load().buckets) < 1<<6 {
			t.Fatalf("writer inserted %d keys into %d buckets", inserts, len(m.table.Load().buckets))
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// The same race, with readers as SOLERO read-only sections validated by
// core.ReadOnlyValue and the writer under the lock: every validated read
// must return the key's exact current value, which the writer also keeps
// in a shadow table inside the same writing section.
func TestValidatedReadersSeeExactValues(t *testing.T) {
	vm := jthread.NewVM()
	l := core.New(nil)
	m := New[int64](1)
	var shadow [staleKeys]atomic.Int64 // 0: absent
	var done atomic.Bool
	var ready sync.WaitGroup
	ready.Add(staleReaders)
	var wg sync.WaitGroup
	type read struct {
		v, want int64
		ok      bool
	}
	errs := make(chan read, staleReaders)
	for r := 0; r < staleReaders; r++ {
		wg.Add(1)
		go func(th *jthread.Thread, seed uint64) {
			defer wg.Done()
			defer th.Detach()
			ready.Done()
			x := seed
			for i := 0; !done.Load() || i < 100; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				k := int64(x>>33) % staleKeys
				got := core.ReadOnlyValue(l, th, func() read {
					v, ok := m.Get(k)
					return read{v: v, ok: ok, want: shadow[k].Load()}
				})
				if got.ok != (got.want != 0) || (got.ok && got.v != got.want) {
					errs <- got
					return
				}
			}
		}(vm.Attach("reader"), uint64(r)+1)
	}
	w := vm.Attach("writer")
	defer w.Detach()
	ready.Wait()
	growReplaceRemove(m, func(k int64, f func()) {
		l.Lock(w)
		f()
		v, _ := m.Get(k) // 0 when f removed k
		shadow[k].Store(v)
		l.Unlock(w)
	})
	done.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("validated read returned %d (present %v), want %d", e.v, e.ok, e.want)
	}
}
