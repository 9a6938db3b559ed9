package stats

// Sharded-counter primitives. A counter that every thread increments through
// a single atomic word serializes those threads on ownership of the word's
// cache line — the exact false-sharing failure mode SOLERO's elided read
// path exists to avoid (the lock word is only *loaded*, so it stays in every
// reader's cache in shared state). Instrumentation must follow the same
// rule: counters bumped on the elided fast path are striped across
// cache-line-padded slots indexed by thread, and aggregated only when read.

import (
	"runtime"
	"sync/atomic"
)

const (
	// CacheLine is the assumed coherence granule in bytes.
	CacheLine = 64

	// FalseSharingRange is the padding granule used to keep independently
	// written words from contending: two cache lines, which also covers
	// the adjacent-line ("spatial") prefetcher pairing 64-byte lines on
	// common x86 parts.
	FalseSharingRange = 128

	// MaxAutoStripes caps automatically sized stripe counts so per-lock
	// footprint stays bounded on very wide machines.
	MaxAutoStripes = 64
)

// CeilPow2 returns the smallest power of two >= n (1 for n <= 1).
func CeilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// DefaultStripeCount is the automatic stripe count: GOMAXPROCS rounded up
// to a power of two (so a mask can replace a modulo), capped at
// MaxAutoStripes.
func DefaultStripeCount() int {
	n := CeilPow2(runtime.GOMAXPROCS(0))
	if n > MaxAutoStripes {
		n = MaxAutoStripes
	}
	return n
}

// SlotHash mixes a thread id and a lock address into a slot index seed for
// padded per-(thread, lock) tables such as rwlock's read-hold table;
// montable hashes lock keys with it too (tid 0). The caller masks the
// result down to its table size (a power of two). A splitmix64-style
// finalizer spreads both inputs across the word so sequentially assigned
// tids and heap-adjacent locks do not cluster.
func SlotHash(tid uint64, addr uintptr) uint64 {
	x := tid ^ (uint64(addr) >> 4) ^ (uint64(addr) << 32)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PaddedCounter is a uint64 counter alone on its own false-sharing range,
// safe to place in arrays without adjacent elements contending.
type PaddedCounter struct {
	v atomic.Uint64
	_ [FalseSharingRange - 8]byte
}

// Add atomically adds n.
func (c *PaddedCounter) Add(n uint64) { c.v.Add(n) }

// Inc atomically adds 1 and returns the new value — the building block for
// per-stripe sampling gates (value & mask == 0 selects every Nth event).
func (c *PaddedCounter) Inc() uint64 { return c.v.Add(1) }

// Load returns the current value.
func (c *PaddedCounter) Load() uint64 { return c.v.Load() }

// Store sets the value.
func (c *PaddedCounter) Store(n uint64) { c.v.Store(n) }

// Striped is a sharded event counter: increments contend only within one
// stripe, reads sum all stripes. The total is exact once writers are
// quiescent; a concurrent Load may miss in-flight increments but never
// moves backwards (each stripe is monotone).
type Striped struct {
	stripes []PaddedCounter
	mask    uint32
}

// NewStriped creates a counter with n stripes rounded up to a power of two
// (n <= 0 selects DefaultStripeCount).
func NewStriped(n int) *Striped {
	if n <= 0 {
		n = DefaultStripeCount()
	}
	n = CeilPow2(n)
	return &Striped{stripes: make([]PaddedCounter, n), mask: uint32(n - 1)}
}

// Add adds n to the stripe selected by index (masked, so any value is
// valid — pass a precomputed per-thread index).
func (s *Striped) Add(stripe uint32, n uint64) { s.stripes[stripe&s.mask].Add(n) }

// Load sums all stripes.
func (s *Striped) Load() uint64 {
	var sum uint64
	for i := range s.stripes {
		sum += s.stripes[i].Load()
	}
	return sum
}

// NumStripes returns the stripe count (a power of two).
func (s *Striped) NumStripes() int { return len(s.stripes) }

// LoadStripe returns stripe i's un-aggregated value.
func (s *Striped) LoadStripe(i int) uint64 { return s.stripes[i].Load() }
