// Package rmap provides a concurrent map for read-mostly workloads, built
// from SOLERO-guarded shards: lookups run as elided read-only critical
// sections (no atomic operations, no lock-word writes), updates take the
// writing protocol, and GetOrCompute uses the §5 read-mostly upgrade so
// cache-hit paths stay elided while misses install entries in place.
//
// Sharding follows the paper's fine-grained HashMap variant (Figure 12c):
// one lock per shard keeps writer-induced speculation failures local to a
// fraction of the key space.
//
// Every method takes the caller's VM thread (one per goroutine, from
// solero.NewVM().Attach). Each shard is an internal/collections/hashmap,
// whose node holds a key's first value inline (written before the node is
// published, never changed after) and a replacement behind an atomic cell,
// so the racing loads performed by speculative readers stay within the Go
// memory model; value types should be treated as immutable once stored.
package rmap

import (
	"math/bits"

	"repro/internal/collections/hashmap"
	"repro/internal/core"
	"repro/internal/jthread"
)

// Map is a sharded read-mostly map from int64 keys to values of type V.
type Map[V any] struct {
	shards []shard[V]
	mask   uint64
}

type shard[V any] struct {
	lock *core.Lock
	data *hashmap.Map[V]
}

// DefaultShards is the shard count used by New when given 0.
const DefaultShards = 16

// New creates a map with the given shard count (rounded up to a power of
// two; 0 means DefaultShards). cfg configures every shard's SOLERO lock
// (nil for defaults).
func New[V any](shards int, cfg *core.Config) *Map[V] {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1 << bits.Len(uint(shards-1))
	m := &Map[V]{shards: make([]shard[V], n), mask: uint64(n - 1)}
	for i := range m.shards {
		m.shards[i] = shard[V]{lock: core.New(cfg), data: hashmap.New[V](0)}
	}
	return m
}

func (m *Map[V]) shardFor(k int64) *shard[V] {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return &m.shards[(h>>32)&m.mask]
}

// lookup is a Get's result as one value, for core.ReadOnlyValue.
type lookup[V any] struct {
	v  V
	ok bool
}

// Get returns the value for k, if present. The lookup is an elided
// read-only critical section: core.ReadOnlyValue, whose hook-free first
// attempt is its own speculative frame, so a successful lookup calls the
// section body directly.
func (m *Map[V]) Get(t *jthread.Thread, k int64) (V, bool) {
	s := m.shardFor(k)
	r := core.ReadOnlyValue(s.lock, t, func() lookup[V] {
		v, ok := s.data.Get(k)
		return lookup[V]{v, ok}
	})
	return r.v, r.ok
}

// Contains reports whether k is present (elided, as Get).
func (m *Map[V]) Contains(t *jthread.Thread, k int64) bool {
	s := m.shardFor(k)
	return core.ReadOnlyValue(s.lock, t, func() bool {
		_, ok := s.data.Get(k)
		return ok
	})
}

// Put inserts or replaces the value for k, returning the previous value if
// any.
func (m *Map[V]) Put(t *jthread.Thread, k int64, v V) (V, bool) {
	s := m.shardFor(k)
	var old V
	var had bool
	s.lock.Sync(t, func() {
		old, had = s.data.Put(k, v)
	})
	return old, had
}

// Delete removes k, returning the removed value if it was present.
func (m *Map[V]) Delete(t *jthread.Thread, k int64) (V, bool) {
	s := m.shardFor(k)
	var old V
	var had bool
	s.lock.Sync(t, func() {
		old, had = s.data.Remove(k)
	})
	return old, had
}

// GetOrCompute returns the value for k, computing and installing it on
// miss. The hit path is a fully elided read; the miss path upgrades the
// section in place (Figure 17), so compute runs while holding the shard
// lock and executes at most once per installation. compute must not touch
// other shards of this map (lock ordering).
func (m *Map[V]) GetOrCompute(t *jthread.Thread, k int64, compute func() V) V {
	s := m.shardFor(k)
	var out V
	s.lock.ReadMostly(t, func(sec *core.Section) {
		if v, ok := s.data.Get(k); ok {
			out = v
			return
		}
		sec.BeforeWrite()
		// Re-check under the lock: a failed upgrade re-executes this
		// body holding the lock, and another thread may have installed
		// the entry meanwhile.
		if v, ok := s.data.Get(k); ok {
			out = v
			return
		}
		out = compute()
		s.data.Put(k, out)
	})
	return out
}

// Len returns the total entry count (summed shard by shard; concurrent
// writers can make the total approximate, as with any sharded container).
func (m *Map[V]) Len(t *jthread.Thread) int {
	total := 0
	for i := range m.shards {
		s := &m.shards[i]
		total += core.ReadOnlyValue(s.lock, t, func() int { return s.data.Len() })
	}
	return total
}

// Range calls fn for every entry until it returns false. Each shard is
// snapshotted under its own elided read section and fn runs on the
// snapshot *outside* the section — speculative re-execution therefore never
// re-runs fn, and fn may block or take other locks freely. The snapshot is
// consistent per shard, not across shards.
func (m *Map[V]) Range(t *jthread.Thread, fn func(k int64, v V) bool) {
	type kv struct {
		k int64
		v V
	}
	for i := range m.shards {
		s := &m.shards[i]
		var snap []kv
		s.lock.ReadOnly(t, func() {
			snap = snap[:0] // a retry rebuilds the snapshot
			s.data.Range(func(k int64, v V) bool {
				snap = append(snap, kv{k, v})
				return true
			})
		})
		for _, e := range snap {
			if !fn(e.k, e.v) {
				return
			}
		}
	}
}

// Stats aggregates the shard locks' elision counters. ElisionAttempts and
// ElisionSuccesses are kept only by counted shard locks (Counted: a cfg
// with Metrics set, such as core.CountedConfig's); on uncounted ones they
// are absent and read 0.
type Stats struct {
	Counted          bool
	ElisionAttempts  uint64
	ElisionSuccesses uint64
	ElisionFailures  uint64
	Fallbacks        uint64
	Upgrades         uint64
}

// Stats returns aggregated protocol counters across shards.
func (m *Map[V]) Stats() Stats {
	out := Stats{Counted: m.shards[0].lock.Stats().Counted()}
	for i := range m.shards {
		st := m.shards[i].lock.Stats()
		out.ElisionAttempts += st.ElisionAttempts.Load()
		out.ElisionSuccesses += st.ElisionSuccesses.Load()
		out.ElisionFailures += st.ElisionFailures.Load()
		out.Fallbacks += st.Fallbacks.Load()
		out.Upgrades += st.Upgrades.Load()
	}
	return out
}
