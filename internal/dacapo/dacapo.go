// Package dacapo is the DaCapo 9.10 substitute: synthetic application
// mixes whose lock profiles match what the paper reports in Table 1 for
// the four multithreaded DaCapo benchmarks it uses — the lock-relevant
// dimensions being the share of read-only synchronized blocks (h2 0.0%,
// tomcat 3.7%, tradebeans 0.3%, tradesoap 11.4%) and the ratio of
// application work to lock work. With read-only ratios this low, SOLERO
// should neither help nor hurt measurably (Figure 16: |Δ| < 1%), which is
// exactly what the substitute is built to test.
package dacapo

import (
	"sync/atomic"

	"repro/internal/collections/hashmap"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jthread"
	"repro/internal/workload"
)

// Profile describes one application's lock behavior.
type Profile struct {
	Name string
	// ReadOnlyPct is the percentage (0..100, may be fractional) of
	// synchronized blocks that are read-only.
	ReadOnlyPct float64
	// LocksPerOp is how many synchronized blocks one application
	// operation executes.
	LocksPerOp int
	// CSWork is the computational weight inside each critical section.
	CSWork int
	// AppWork is the computational weight outside critical sections per
	// operation (application code between lock operations).
	AppWork int
	// SharedLocks is how many distinct locks the application cycles
	// through.
	SharedLocks int
}

// Profiles are the four DaCapo benchmarks of Figure 16, lock statistics
// from Table 1.
var Profiles = []Profile{
	{Name: "h2", ReadOnlyPct: 0.0, LocksPerOp: 2, CSWork: 60, AppWork: 400, SharedLocks: 4},
	{Name: "tomcat", ReadOnlyPct: 3.7, LocksPerOp: 3, CSWork: 20, AppWork: 160, SharedLocks: 8},
	{Name: "tradebeans", ReadOnlyPct: 0.3, LocksPerOp: 2, CSWork: 40, AppWork: 500, SharedLocks: 6},
	{Name: "tradesoap", ReadOnlyPct: 11.4, LocksPerOp: 2, CSWork: 30, AppWork: 220, SharedLocks: 6},
}

// ProfileByName finds a profile (nil if unknown).
func ProfileByName(name string) *Profile {
	for i := range Profiles {
		if Profiles[i].Name == name {
			return &Profiles[i]
		}
	}
	return nil
}

// Bench runs one profile under one lock implementation.
type Bench struct {
	Profile Profile
	Impl    workload.Impl
	guards  []*workload.Guard
	data    []*hashmap.Map[int64]
}

// New builds the benchmark.
func New(p Profile, impl workload.Impl) *Bench { return NewConfig(p, impl, nil) }

// NewConfig is New with an explicit SOLERO base lock configuration for
// every shared lock's guard (see workload.NewGuardConfig). LockOps needs
// counted locks (core.CountedConfig).
func NewConfig(p Profile, impl workload.Impl, base *core.Config) *Bench {
	b := &Bench{Profile: p, Impl: impl}
	for i := 0; i < p.SharedLocks; i++ {
		b.guards = append(b.guards, workload.NewGuardConfig(impl, base))
		m := hashmap.New[int64](256)
		for k := int64(0); k < 128; k++ {
			m.Put(k, k)
		}
		b.data = append(b.data, m)
	}
	return b
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

var sink atomic.Uint64

//go:noinline
func work(n int) uint64 {
	x := uint64(0)
	for i := 0; i < n; i++ {
		x += uint64(i) ^ (x << 1)
	}
	return x
}

// Worker returns the harness worker for the profile.
func (b *Bench) Worker() harness.Worker {
	return func(i int, th *jthread.Thread, stop *atomic.Bool) uint64 {
		r := &rng{s: uint64(i)*13 + 7}
		var ops uint64
		for !stop.Load() {
			b.Op(th, r.next())
			ops++
		}
		return ops
	}
}

// Op runs one application operation (AppWork plus LocksPerOp synchronized
// blocks) using rnd as the randomness source — the single-step form of
// Worker (testing.B callers).
func (b *Bench) Op(th *jthread.Thread, rnd uint64) {
	p := b.Profile
	// ReadOnlyPct is fractional; draw against a per-mille threshold.
	roThreshold := uint64(p.ReadOnlyPct * 10) // out of 1000
	r := &rng{s: rnd}
	sink.Add(work(p.AppWork))
	for l := 0; l < p.LocksPerOp; l++ {
		x := r.next()
		gi := int(x % uint64(len(b.guards)))
		g, m := b.guards[gi], b.data[gi]
		k := int64(x >> 8 % 128)
		if x>>32%1000 < roThreshold {
			// The in-section spin stays (it models critical-section
			// length); the sink update moves out so the speculative
			// section stays write-free and idempotent.
			var got uint64
			g.Read(th, func() {
				v, _ := m.Get(k)
				got = uint64(v) + work(p.CSWork)
			})
			sink.Add(got)
		} else {
			g.Write(th, func() {
				v, _ := m.Get(k)
				m.Put(k, v+1)
				sink.Add(work(p.CSWork))
			})
		}
	}
}

// LockOps returns total and read-only lock operations (Table 1). The
// SOLERO guards must be counted (NewConfig with core.CountedConfig): an
// uncounted lock's FastAcquires and ElisionAttempts are absent.
func (b *Bench) LockOps() (total, readOnly uint64) {
	for _, g := range b.guards {
		if st := g.SoleroStats(); st != nil {
			writes := st.FastAcquires.Load() + st.SlowAcquires.Load()
			reads := st.ElisionAttempts.Load() + st.ReadRecursions.Load() + st.ReadFatEnters.Load()
			total += writes + reads
			readOnly += reads
		}
	}
	return
}
