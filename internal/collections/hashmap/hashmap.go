// Package hashmap implements a java.util.HashMap-like chained hash table,
// the data structure of the paper's HashMap benchmark (a single map guarded
// by one lock, 1K entries).
//
// The map itself is NOT synchronized — callers guard it with one of the
// lock implementations, exactly as the benchmark wraps java.util.HashMap in
// synchronized blocks. What the package does guarantee is *speculation
// safety*: a SOLERO reader racing with a locked writer performs only
// defined reads and always finishes.
//
// A node is java.util.HashMap's: it holds its key and its first value
// (init) inline, both written before the node is published and never
// changed after. The mutable cells are sync/atomic values: the bucket
// heads, each node's next link, each node's val (nil until the key's first
// replacement, then a box holding the current value), the table pointer
// and the size. Resize is Java 8's: it splits each bin into an
// order-preserving lo and hi chain, reusing the nodes.
//
// Why a racing reader stays safe:
//
//   - key and init never change after publication, and every pointer to a
//     node a reader can load was stored after the node was initialized, so
//     reading them is ordered by the atomic load that found the node;
//   - every next pointer ever stored points from a newer node to an older
//     one: an insert prepends, an unlink skips a node, and the split keeps
//     each chain's order;
//   - so any traversal, however stale, visits nodes in strictly decreasing
//     insertion order and ends, with no checkpoint and no fault;
//   - a stale reader can miss a key, or find it in its old bucket, but
//     every such change happens inside a writing section, so the SOLERO
//     validation protocol discards that execution.
//
// This mirrors the JVM setting, where racy field reads are defined (if
// unordered) under the Java memory model.
package hashmap

import "sync/atomic"

// DefaultCapacity matches java.util.HashMap's default table size.
const DefaultCapacity = 16

// loadFactorNum/Den encode java.util.HashMap's 0.75 load factor.
const (
	loadFactorNum = 3
	loadFactorDen = 4
)

// Map is a chained hash table from int64 keys to values of type V.
type Map[V any] struct {
	table atomic.Pointer[table[V]]
	size  atomic.Int64
}

type table[V any] struct {
	buckets []atomic.Pointer[entry[V]]
	mask    uint64
}

// entry is one node. key and init are immutable once the node is
// published; val stays nil until the key's first replacement.
type entry[V any] struct {
	key  int64
	val  atomic.Pointer[V]
	next atomic.Pointer[entry[V]]
	init V
}

// value returns the entry's current value.
func (e *entry[V]) value() V {
	if p := e.val.Load(); p != nil {
		return *p
	}
	return e.init
}

// New creates a map with at least the given capacity (rounded up to a power
// of two; 0 means DefaultCapacity).
func New[V any](capacity int) *Map[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	m := &Map[V]{}
	m.table.Store(newTable[V](n))
	return m
}

func newTable[V any](n int) *table[V] {
	return &table[V]{buckets: make([]atomic.Pointer[entry[V]], n), mask: uint64(n - 1)}
}

// spread is java.util.HashMap's supplemental hash: XOR the high half down so
// power-of-two masking sees the full key.
func spread(k int64) uint64 {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return int(m.size.Load()) }

// Get returns the value for key, if present. It performs only loads, making
// it legal inside a read-only critical section.
func (m *Map[V]) Get(key int64) (V, bool) {
	tab := m.table.Load()
	for e := tab.buckets[spread(key)&tab.mask].Load(); e != nil; e = e.next.Load() {
		if e.key == key {
			return e.value(), true
		}
	}
	var zero V
	return zero, false
}

// ContainsKey reports whether key is present (load-only).
func (m *Map[V]) ContainsKey(key int64) bool {
	_, ok := m.Get(key)
	return ok
}

// Put inserts or replaces the value for key, returning the previous value
// if any. Callers must hold the guarding lock in write mode.
func (m *Map[V]) Put(key int64, val V) (V, bool) {
	tab := m.table.Load()
	head := &tab.buckets[spread(key)&tab.mask]
	first := head.Load()
	for e := first; e != nil; e = e.next.Load() {
		if e.key == key {
			box := new(V) // not &val, which would move val to the heap on every Put
			*box = val
			if old := e.val.Swap(box); old != nil {
				return *old, true
			}
			return e.init, true
		}
	}
	e := &entry[V]{key: key, init: val}
	e.next.Store(first)
	head.Store(e)
	if m.size.Add(1)*loadFactorDen > int64(len(tab.buckets))*loadFactorNum {
		m.resize(tab)
	}
	var zero V
	return zero, false
}

// Remove deletes key, returning the removed value if it was present.
// Callers must hold the guarding lock in write mode.
func (m *Map[V]) Remove(key int64) (V, bool) {
	tab := m.table.Load()
	head := &tab.buckets[spread(key)&tab.mask]
	var prev *entry[V]
	for e := head.Load(); e != nil; e = e.next.Load() {
		if e.key == key {
			next := e.next.Load()
			if prev == nil {
				head.Store(next)
			} else {
				prev.next.Store(next)
			}
			m.size.Add(-1)
			return e.value(), true
		}
		prev = e
	}
	var zero V
	return zero, false
}

// resize doubles the table with Java 8's split: bin i's chain becomes a lo
// chain (bin i) and a hi chain (bin i+n) that keep its order and its nodes.
// A link is stored only where the split breaks a run, so a node costs at
// most one atomic store; every stored link still points to an older node
// (see the package doc), so a reader walking the old table ends.
func (m *Map[V]) resize(old *table[V]) {
	n := len(old.buckets)
	next := newTable[V](n * 2)
	bit := uint64(n)
	for i := range old.buckets {
		// Index 0 is the lo chain (bin i), 1 the hi chain (bin i+n).
		var heads, tails [2]*entry[V]
		var prev *entry[V]
		for e := old.buckets[i].Load(); e != nil; e = e.next.Load() {
			side := 0
			if spread(e.key)&bit != 0 {
				side = 1
			}
			if t := tails[side]; t == nil {
				heads[side] = e
			} else if t != prev {
				t.next.Store(e)
			}
			tails[side] = e
			prev = e
		}
		// prev is the chain's last node, whose next is already nil.
		for side, t := range tails {
			if t == nil {
				continue
			}
			if t != prev {
				t.next.Store(nil)
			}
			next.buckets[i+side*n].Store(heads[side])
		}
	}
	m.table.Store(next)
}

// Range calls fn for every entry until fn returns false (load-only; the
// iteration order is unspecified). Legal inside read-only sections.
func (m *Map[V]) Range(fn func(key int64, val V) bool) {
	tab := m.table.Load()
	for i := range tab.buckets {
		for e := tab.buckets[i].Load(); e != nil; e = e.next.Load() {
			if !fn(e.key, e.value()) {
				return
			}
		}
	}
}

// Keys returns all keys (unspecified order).
func (m *Map[V]) Keys() []int64 {
	out := make([]int64, 0, m.Len())
	m.Range(func(k int64, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
