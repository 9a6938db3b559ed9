package rmap

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/jthread"
)

func newT() (*jthread.VM, *jthread.Thread) {
	vm := jthread.NewVM()
	return vm, vm.Attach("main")
}

func TestBasicOperations(t *testing.T) {
	_, th := newT()
	m := New[string](0, nil)
	if _, ok := m.Get(th, 1); ok {
		t.Fatalf("empty map returned a value")
	}
	if _, had := m.Put(th, 1, "one"); had {
		t.Fatalf("fresh Put reported replacement")
	}
	v, ok := m.Get(th, 1)
	if !ok || v != "one" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	old, had := m.Put(th, 1, "uno")
	if !had || old != "one" {
		t.Fatalf("replace = %q,%v", old, had)
	}
	if !m.Contains(th, 1) || m.Contains(th, 2) {
		t.Fatalf("Contains wrong")
	}
	gone, had := m.Delete(th, 1)
	if !had || gone != "uno" {
		t.Fatalf("Delete = %q,%v", gone, had)
	}
	if m.Len(th) != 0 {
		t.Fatalf("Len = %d", m.Len(th))
	}
}

func TestShardRounding(t *testing.T) {
	m := New[int](5, nil)
	if len(m.shards) != 8 {
		t.Fatalf("shards = %d, want next power of two (8)", len(m.shards))
	}
	m = New[int](0, nil)
	if len(m.shards) != DefaultShards {
		t.Fatalf("default shards = %d", len(m.shards))
	}
}

func TestGetIsElided(t *testing.T) {
	_, th := newT()
	m := New[int](4, core.CountedConfig(nil))
	m.Put(th, 7, 70)
	before := m.Stats()
	for i := 0; i < 100; i++ {
		m.Get(th, 7)
	}
	after := m.Stats()
	if plain := New[int](4, nil).Stats(); !after.Counted || plain.Counted {
		t.Fatalf("Counted = %v on counted shard locks, %v on default ones; want true, false",
			after.Counted, plain.Counted)
	}
	if after.ElisionSuccesses-before.ElisionSuccesses != 100 {
		t.Fatalf("gets not elided: %+v -> %+v", before, after)
	}
}

func TestGetOrComputeHitStaysElided(t *testing.T) {
	_, th := newT()
	m := New[int](4, core.CountedConfig(nil))
	var computes atomic.Int32
	compute := func() int { computes.Add(1); return 42 }
	if got := m.GetOrCompute(th, 5, compute); got != 42 {
		t.Fatalf("miss = %d", got)
	}
	before := m.Stats()
	for i := 0; i < 50; i++ {
		if got := m.GetOrCompute(th, 5, compute); got != 42 {
			t.Fatalf("hit = %d", got)
		}
	}
	after := m.Stats()
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times", computes.Load())
	}
	if after.ElisionSuccesses-before.ElisionSuccesses != 50 {
		t.Fatalf("hit path not elided")
	}
	if after.Upgrades < 1 {
		t.Fatalf("miss did not upgrade")
	}
}

func TestGetOrComputeSingleInstallUnderRace(t *testing.T) {
	vm := jthread.NewVM()
	m := New[int64](2, nil)
	var installs atomic.Int64
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			th := vm.Attach("w")
			defer th.Detach()
			for k := int64(0); k < 64; k++ {
				got := m.GetOrCompute(th, k, func() int64 {
					installs.Add(1)
					return k * 10
				})
				if got != k*10 {
					t.Errorf("key %d = %d", k, got)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// Exactly one install per key despite the race.
	if installs.Load() != 64 {
		t.Fatalf("installs = %d, want 64", installs.Load())
	}
}

func TestRangeSnapshotAndEarlyExit(t *testing.T) {
	_, th := newT()
	m := New[int](4, nil)
	for k := int64(0); k < 40; k++ {
		m.Put(th, k, int(k))
	}
	seen := map[int64]bool{}
	m.Range(th, func(k int64, v int) bool {
		if seen[k] {
			t.Fatalf("key %d visited twice (speculative retry leaked into fn)", k)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 40 {
		t.Fatalf("visited %d keys", len(seen))
	}
	count := 0
	m.Range(th, func(int64, int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early exit visited %d", count)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	vm := jthread.NewVM()
	m := New[int64](8, nil)
	for k := int64(0); k < 256; k++ {
		th := vm.Attach("init")
		m.Put(th, k, k)
		th.Detach()
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := vm.Attach("w")
			defer th.Detach()
			for i := 0; i < 4000; i++ {
				seed = seed*6364136223846793005 + 1
				k := int64(seed % 256)
				switch seed >> 32 % 10 {
				case 0:
					m.Put(th, k, k)
				case 1:
					m.Delete(th, k)
					m.Put(th, k, k)
				default:
					if v, ok := m.Get(th, k); ok && v != k {
						t.Errorf("key %d = %d", k, v)
						return
					}
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()
	th := vm.Attach("check")
	for k := int64(0); k < 256; k++ {
		if v, ok := m.Get(th, k); !ok || v != k {
			t.Fatalf("key %d lost or wrong: %d %v", k, v, ok)
		}
	}
}

// Property: rmap agrees with a reference map under random single-threaded
// operation sequences.
func TestQuickAgainstReference(t *testing.T) {
	_, th := newT()
	type op struct {
		Kind uint8
		Key  int8
		Val  int32
	}
	f := func(ops []op) bool {
		m := New[int32](4, nil)
		ref := map[int64]int32{}
		for _, o := range ops {
			k := int64(o.Key)
			switch o.Kind % 3 {
			case 0:
				m.Put(th, k, o.Val)
				ref[k] = o.Val
			case 1:
				got, ok := m.Get(th, k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					return false
				}
			case 2:
				_, ok := m.Delete(th, k)
				_, wok := ref[k]
				delete(ref, k)
				if ok != wok {
					return false
				}
			}
		}
		return m.Len(th) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupsAllocFree checks that Get and Contains, elided through
// core.ReadOnlyValue, allocate nothing on a hit or a miss.
func TestLookupsAllocFree(t *testing.T) {
	_, th := newT()
	m := New[int](4, nil)
	m.Put(th, 1, 10)
	n := testing.AllocsPerRun(100, func() {
		if v, ok := m.Get(th, 1); !ok || v != 10 {
			t.Fatalf("Get(1) = %d, %v", v, ok)
		}
		if m.Contains(th, 2) {
			t.Fatal("Contains(2) on a map without 2")
		}
	})
	if n != 0 {
		t.Fatalf("Get and Contains make %v allocations, want 0", n)
	}
}
