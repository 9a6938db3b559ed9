// Package workload implements the paper's microbenchmarks (§4.1): Empty,
// HashMap, and TreeMap — a shared collection guarded by a single lock (or
// striped locks for the fine-grained HashMap variant of Figure 12c) — under
// each evaluated lock implementation: the conventional tasuki lock
// ("Lock"), the read-write lock ("RWLock"), SOLERO, and SOLERO's Unelided
// ablation. Every lock runs natively; the paper's WeakBarrier fence
// ablation has no native form and lives in internal/simcoherence.
package workload

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/collections/hashmap"
	"repro/internal/collections/treemap"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jthread"
	"repro/internal/metrics"
	"repro/internal/montable"
	"repro/internal/rwlock"
	"repro/internal/vmlock"
)

// Impl selects a lock implementation/configuration.
type Impl uint8

// Implementations.
const (
	// ImplLock is the conventional tasuki lock.
	ImplLock Impl = iota
	// ImplRWLock is the reentrant read-write lock (read mode for
	// read-only sections).
	ImplRWLock
	// ImplSolero is SOLERO with elision.
	ImplSolero
	// ImplSoleroUnelided is SOLERO with elision disabled (Figure 10's
	// Unelided-SOLERO): read sections pay the full write protocol.
	ImplSoleroUnelided
)

// String names the implementation as the paper does.
func (im Impl) String() string {
	switch im {
	case ImplLock:
		return "Lock"
	case ImplRWLock:
		return "RWLock"
	case ImplSolero:
		return "SOLERO"
	case ImplSoleroUnelided:
		return "Unelided-SOLERO"
	default:
		return "impl(?)"
	}
}

// ParseImpl maps a backend/implementation name (as the CLIs spell them) to
// an Impl.
func ParseImpl(name string) (Impl, error) {
	switch name {
	case "lock", "vmlock":
		return ImplLock, nil
	case "rwlock":
		return ImplRWLock, nil
	case "solero":
		return ImplSolero, nil
	case "solero-unelided":
		return ImplSoleroUnelided, nil
	}
	return 0, fmt.Errorf("workload: unknown implementation %q", name)
}

// PaperImpls are the three implementations of the main comparison.
var PaperImpls = []Impl{ImplLock, ImplRWLock, ImplSolero}

// Fig10Impls are the four native Empty-benchmark configurations.
var Fig10Impls = []Impl{ImplLock, ImplRWLock, ImplSolero, ImplSoleroUnelided}

// Guard wraps one lock instance of the selected implementation, guarding
// one shared resource.
type Guard struct {
	impl Impl
	conv *vmlock.Lock
	rw   *rwlock.RWLock
	sol  *core.Lock
	// tb is the compact monitor table the Lock and SOLERO impls rent fat
	// monitors from (nil for the others); its background sweeper runs
	// until the guard is collected.
	tb *montable.Table
}

// NewGuard creates a guard for impl.
func NewGuard(impl Impl) *Guard {
	return NewGuardConfig(impl, nil)
}

// NewGuardConfig is NewGuard with an explicit SOLERO base configuration:
// the base's observability wiring (Metrics, History, Sched) and tuning ride
// along. A nil base means core.DefaultConfig; non-SOLERO impls use only its
// metrics registry.
func NewGuardConfig(impl Impl, base *core.Config) *Guard {
	g := &Guard{impl: impl}
	// The base config's registry reaches every impl, not just SOLERO: the
	// conventional baselines record their own contention causes (gate
	// parks, monitor parks) into the same taxonomy.
	var reg *metrics.Registry
	if base != nil {
		reg = base.Metrics
	}
	switch impl {
	case ImplLock:
		cfg := *vmlock.DefaultConfig
		cfg.Metrics = reg
		cfg.Monitors = g.newTable(reg)
		g.conv = vmlock.New(&cfg)
	case ImplRWLock:
		g.rw = &rwlock.RWLock{Metrics: reg}
	default:
		cfg := *core.DefaultConfig
		if base != nil {
			cfg = *base
		}
		cfg.DisableElision = impl == ImplSoleroUnelided
		cfg.Monitors = g.newTable(reg)
		g.sol = core.New(&cfg)
	}
	return g
}

// newTable builds and starts the guard's monitor table, wiring the
// sweep-latency histogram into reg. The sweeper stops when the guard is
// collected: benchmarks build guards by the hundred and never close them.
func (g *Guard) newTable(reg *metrics.Registry) *montable.Table {
	g.tb = montable.New(montable.Config{SweepInterval: 2 * time.Millisecond, Metrics: reg})
	g.tb.Start()
	runtime.SetFinalizer(g, func(g *Guard) { g.tb.Stop() })
	return g.tb
}

// Table returns the guard's compact monitor table (nil for the RWLock
// impl).
func (g *Guard) Table() *montable.Table { return g.tb }

// Read runs fn as a read-only critical section under the guard.
func (g *Guard) Read(t *jthread.Thread, fn func()) {
	switch g.impl {
	case ImplLock:
		g.conv.Sync(t, fn)
	case ImplRWLock:
		g.rw.ReadSync(t, fn)
	default:
		g.sol.ReadOnly(t, fn)
	}
}

// Write runs fn as a writing critical section under the guard.
func (g *Guard) Write(t *jthread.Thread, fn func()) {
	switch g.impl {
	case ImplLock:
		g.conv.Sync(t, fn)
	case ImplRWLock:
		g.rw.WriteSync(t, fn)
	default:
		g.sol.Sync(t, fn)
	}
}

// Backend returns the guard's lock behind the backend SPI (lockstats'
// counter export). The section-running paths above stay direct
// calls: solerovet's wrapper discovery must keep seeing Guard.Read forward
// to sol.ReadOnly.
func (g *Guard) Backend() backend.Backend {
	switch {
	case g.conv != nil:
		return backend.ForVMLock(g.conv, g.tb)
	case g.rw != nil:
		return backend.ForRWLock(g.rw)
	default:
		return backend.ForSolero(g.sol, g.tb)
	}
}

// SoleroStats returns the SOLERO counters (nil for other impls).
func (g *Guard) SoleroStats() *core.Stats {
	if g.sol == nil {
		return nil
	}
	return g.sol.Stats()
}

// rng is a splitmix64 PRNG, one per worker thread.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 1} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// opSink defeats dead-code elimination of benchmark reads.
var opSink atomic.Uint64

// Empty is the Empty microbenchmark: an empty synchronized block,
// classified read-only.
type Empty struct {
	G *Guard
}

// NewEmpty creates the benchmark for one implementation.
func NewEmpty(impl Impl) *Empty {
	return &Empty{G: NewGuard(impl)}
}

// NewEmptyConfig is NewEmpty with an explicit SOLERO base lock
// configuration (see NewGuardConfig).
func NewEmptyConfig(impl Impl, base *core.Config) *Empty {
	return &Empty{G: NewGuardConfig(impl, base)}
}

// Worker returns the harness worker.
func (e *Empty) Worker() harness.Worker {
	return func(i int, th *jthread.Thread, stop *atomic.Bool) uint64 {
		var ops uint64
		for !stop.Load() {
			e.G.Read(th, func() {})
			ops++
		}
		return ops
	}
}

// MapKind selects the collection under test.
type MapKind uint8

// Map kinds.
const (
	// Hash is java.util.HashMap-like.
	Hash MapKind = iota
	// Tree is java.util.TreeMap-like.
	Tree
)

// String names the kind.
func (k MapKind) String() string {
	if k == Tree {
		return "TreeMap"
	}
	return "HashMap"
}

// MapBench is the HashMap/TreeMap benchmark: Entries keys preloaded, each
// operation a Get (read-only synchronized block) or a Put of an existing
// key (writing block), selected per WritePct. Shards > 1 is the
// fine-grained variant of Figure 12c: Shards maps each behind its own
// lock, selected by key.
type MapBench struct {
	Kind     MapKind
	WritePct int
	Entries  int
	Shards   int

	guards []*Guard
	hms    []*hashmap.Map[int64]
	tms    []*treemap.Map[int64]
}

// NewMapBench builds and preloads the benchmark. The paper uses 1K entries,
// write percentages 0 and 5, and shards equal to the thread count for the
// fine-grained variant (1 otherwise).
func NewMapBench(kind MapKind, impl Impl, writePct, entries, shards int) *MapBench {
	return NewMapBenchConfig(kind, impl, writePct, entries, shards, nil)
}

// NewMapBenchConfig is NewMapBench with an explicit SOLERO base lock
// configuration for every shard guard (see NewGuardConfig).
func NewMapBenchConfig(kind MapKind, impl Impl, writePct, entries, shards int, base *core.Config) *MapBench {
	if shards < 1 {
		shards = 1
	}
	b := &MapBench{Kind: kind, WritePct: writePct, Entries: entries, Shards: shards}
	for s := 0; s < shards; s++ {
		b.guards = append(b.guards, NewGuardConfig(impl, base))
		if kind == Hash {
			b.hms = append(b.hms, hashmap.New[int64](entries*2))
		} else {
			b.tms = append(b.tms, treemap.New[int64]())
		}
	}
	for k := int64(0); k < int64(entries); k++ {
		s := int(k) % shards
		if kind == Hash {
			b.hms[s].Put(k, k)
		} else {
			b.tms[s].Put(k, k)
		}
	}
	return b
}

// get performs the read-only synchronized lookup.
//
// The lookup result is carried out of the section through a captured
// local and only then folded into the global sink: an atomic.Add inside
// the closure would re-execute on every speculative abort (double
// counting) and put a contended write on the deliberately write-free
// read fast path. solerovet's specsafety analyzer flags the in-section
// form.
func (b *MapBench) get(th *jthread.Thread, shard int, k int64) {
	g := b.guards[shard]
	var v int64
	if b.Kind == Hash {
		m := b.hms[shard]
		g.Read(th, func() { v, _ = m.Get(k) })
	} else {
		m := b.tms[shard]
		g.Read(th, func() { v, _ = m.Get(k) })
	}
	opSink.Add(uint64(v))
}

// put performs the writing synchronized update (replacing an existing
// key's value, as the paper's 5%-writes configuration updates the map
// without growing it).
func (b *MapBench) put(th *jthread.Thread, shard int, k, v int64) {
	g := b.guards[shard]
	if b.Kind == Hash {
		m := b.hms[shard]
		g.Write(th, func() { m.Put(k, v) })
	} else {
		m := b.tms[shard]
		g.Write(th, func() { m.Put(k, v) })
	}
}

// Worker returns the harness worker.
func (b *MapBench) Worker() harness.Worker {
	return func(i int, th *jthread.Thread, stop *atomic.Bool) uint64 {
		r := newRNG(uint64(i) + 12345)
		var ops uint64
		for !stop.Load() {
			x := r.next()
			k := int64(x % uint64(b.Entries))
			shard := int(k) % b.Shards
			if int(x>>32%100) < b.WritePct {
				b.put(th, shard, k, int64(x))
			} else {
				b.get(th, shard, k)
			}
			ops++
		}
		return ops
	}
}

// Guards exposes the per-shard guards (benchmarks and tests).
func (b *MapBench) Guards() []*Guard { return b.guards }

// Op performs one randomized benchmark operation using rnd as the source
// of randomness — the single-step form of Worker for callers that manage
// their own iteration (testing.B).
func (b *MapBench) Op(th *jthread.Thread, rnd uint64) {
	k := int64(rnd % uint64(b.Entries))
	shard := int(k) % b.Shards
	if int(rnd>>32%100) < b.WritePct {
		b.put(th, shard, k, int64(rnd))
	} else {
		b.get(th, shard, k)
	}
}

// FailureRatio aggregates the SOLERO speculation-failure ratio across all
// shards (Figure 15); it returns 0 for non-SOLERO impls and for uncounted
// locks. It and LockOps need counted guards (NewMapBenchConfig with
// core.CountedConfig): an uncounted lock's FastAcquires and
// ElisionAttempts are absent (core.Stats.Counted), and so is an
// unmetered conventional lock's FastAcquires.
func (b *MapBench) FailureRatio() float64 {
	var attempts, failures uint64
	for _, g := range b.guards {
		if st := g.SoleroStats(); st != nil {
			attempts += st.ElisionAttempts.Load()
			failures += st.ElisionFailures.Load()
		}
	}
	if attempts == 0 {
		return 0
	}
	return 100 * float64(failures) / float64(attempts)
}

// LockOps returns total lock acquisitions + elisions across shards,
// with the read-only share — the Table 1 instrumentation.
func (b *MapBench) LockOps() (total, readOnly uint64) {
	for _, g := range b.guards {
		switch {
		case g.sol != nil:
			st := g.sol.Stats()
			writes := st.FastAcquires.Load() + st.SlowAcquires.Load()
			reads := st.ElisionAttempts.Load() + st.ReadRecursions.Load() + st.ReadFatEnters.Load()
			total += writes + reads
			readOnly += reads
		case g.conv != nil:
			st := g.conv.Stats()
			total += st.FastAcquires.Load() + st.SlowAcquires.Load()
		case g.rw != nil:
			st := g.rw.Stats()
			total += st["readAcquires"] + st["writeAcquires"]
			readOnly += st["readAcquires"]
		}
	}
	return
}

// Verify checks the collection still holds exactly Entries keys with
// the correct key set (post-benchmark sanity).
func (b *MapBench) Verify() error {
	count := 0
	for s := 0; s < b.Shards; s++ {
		if b.Kind == Hash {
			count += b.hms[s].Len()
		} else {
			count += b.tms[s].Len()
		}
	}
	if count != b.Entries {
		return fmt.Errorf("workload: map has %d entries, want %d", count, b.Entries)
	}
	return nil
}
