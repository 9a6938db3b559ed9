package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/collections/hashmap"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/montable"
	"repro/solero"
	"repro/solero/rmap"
)

// A workload is one set of generated inputs plus the system under test that
// serves them. The three workloads stress different layers of the read path;
// README.md records why each was chosen.
type workload struct {
	name string
	why  string
	// gen makes the inputs from the seed: the program only ever sees the
	// generated keys and operation streams.
	gen func(seed int64, workers int) *inputs
	// lockConfig is the configuration of the workload's locks; lock_bytes
	// is the heap cost of one lock built with it.
	lockConfig func() *core.Config
	// build constructs the system under test. Its duration is setup_s.
	build func(in *inputs) system
}

// system is a built system under test.
type system interface {
	// worker attaches a VM thread for worker id; tr is nil in untraced
	// rounds.
	worker(id int, tr *tracer) worker
	// counters snapshots the exported protocol counters.
	counters() counters
	// audit checks the quiescent state after a round, given the number of
	// writes the workers completed.
	audit(writes uint64) error
}

// worker runs operations on one VM thread. It is used by one goroutine.
type worker interface {
	// do runs one operation and reports whether it was a write. A failed
	// correctness check is counted, not returned. traced asks for spans.
	do(o op, traced bool) (write bool)
	// totals returns the failed checks and completed writes so far.
	totals() (failed, writes uint64)
}

type opCode uint8

const (
	opRead opCode = iota
	opWrite
	// opReadMostly is rmap.GetOrCompute on a key that is present.
	opReadMostly
)

// op is one generated operation: a key (or object) index and what to do.
type op struct {
	idx  uint32
	kind opCode
}

type inputs struct {
	keys    []int64 // hashmap / rmap key universe
	objects int     // many-locks object count
	streams [][]op  // one cyclic stream per worker (power-of-two length)
}

// Values encode their key: v = k<<seqBits | seq. Every validated read
// checks the encoding, so a torn or misplaced value is a failed operation.
const (
	seqBits  = 20
	seqMask  = 1<<seqBits - 1
	keyLimit = 1 << 40 // keys stay below 2^40 so k<<seqBits fits an int64
)

// streamLen is each worker's op-stream length: long enough that the cycle
// does not fit in cache alongside the system's own data.
const streamLen = 1 << 18

// keyCount is the hashmap / rmap key universe of the paper's Figure 12.
const keyCount = 1024

// manyObjects is the many-locks object count.
const manyObjects = 1 << 16

var workloads = []*workload{
	{
		name:       "ro-hashmap",
		why:        "elided reads only: one lock, 1,024-key hashmap, 100% ReadOnly Gets; the fast path is nearly the whole op",
		gen:        genUniform(keyCount, func(r *rand.Rand) opCode { return opRead }),
		lockConfig: func() *core.Config { return nil },
		build:      buildRO,
	},
	{
		name: "rw5-rmap",
		why:  "writers beside readers: 16-shard rmap, 94% Get, 5% Put, 1% GetOrCompute, metrics registry wired",
		gen: genUniform(keyCount, func(r *rand.Rand) opCode {
			switch x := r.Intn(100); {
			case x < 5:
				return opWrite
			case x < 6:
				return opReadMostly
			}
			return opRead
		}),
		lockConfig: contendedConfig,
		build:      buildRmap,
	},
	{
		name:       "many-locks",
		why:        "per-object monitors: 65,536 locks, Zipf(1.2) picks, 90% ReadOnly / 10% Sync; footprint and cache misses dominate",
		gen:        genMany,
		lockConfig: contendedConfig,
		build:      buildMany,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// genUniform draws keyCount distinct keys and per-worker streams of uniform
// key picks whose kinds come from kind.
func genUniform(n int, kind func(*rand.Rand) opCode) func(int64, int) *inputs {
	return func(seed int64, workers int) *inputs {
		r := rand.New(rand.NewSource(seed))
		seen := make(map[int64]bool, n)
		keys := make([]int64, 0, n)
		for len(keys) < n {
			k := 1 + r.Int63n(keyLimit-1)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		in := &inputs{keys: keys}
		for range workers {
			s := make([]op, streamLen)
			for i := range s {
				s[i] = op{idx: uint32(r.Intn(n)), kind: kind(r)}
			}
			in.streams = append(in.streams, s)
		}
		return in
	}
}

// genMany picks objects by Zipf(s=1.2) rank mapped through a seeded
// permutation, so the hot head lands on different objects per seed.
func genMany(seed int64, workers int) *inputs {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(manyObjects)
	z := rand.NewZipf(r, 1.2, 1, manyObjects-1)
	in := &inputs{objects: manyObjects}
	for range workers {
		s := make([]op, streamLen)
		for i := range s {
			k := opRead
			if r.Intn(10) == 0 {
				k = opWrite
			}
			s[i] = op{idx: uint32(perm[z.Uint64()]), kind: k}
		}
		in.streams = append(in.streams, s)
	}
	return in
}

// counters is a snapshot of the protocol counters a workload exports.
// Fields a workload cannot observe stay zero (README.md lists them).
type counters struct {
	elisionAttempts uint64
	elisionFailures uint64
	fallbacks       uint64
	inflations      uint64
	fatEnters       uint64 // writing and reading fat-mode entries
	spinAcquires    uint64
	flcWaits        uint64
	aborts          [numAbortCauses]uint64
}

// abortCauses are the speculation-abort causes of the metrics taxonomy (the
// remaining causes are other backends' contention events).
var abortCauses = [...]metrics.AbortCause{
	metrics.AbortWriterRaced,
	metrics.AbortLockBitSet,
	metrics.AbortInflated,
	metrics.AbortRecursionOverflow,
	metrics.AbortAsync,
}

const numAbortCauses = len(abortCauses)

func (c *counters) addLock(st *solero.Stats) {
	c.elisionAttempts += st.ElisionAttempts.Load()
	c.elisionFailures += st.ElisionFailures.Load()
	c.fallbacks += st.Fallbacks.Load()
	c.inflations += st.Inflations.Load()
	c.fatEnters += st.FatEnters.Load() + st.ReadFatEnters.Load()
	c.spinAcquires += st.SpinAcquires.Load()
	c.flcWaits += st.FLCWaits.Load()
}

// --- ro-hashmap ---

type roSystem struct {
	vm   *solero.VM
	lock *solero.Lock
	m    *hashmap.Map[int64]
	keys []int64
}

func buildRO(in *inputs) system {
	s := &roSystem{vm: solero.NewVM(), lock: solero.NewLock(nil), m: hashmap.New[int64](0), keys: in.keys}
	t := s.vm.Attach("setup")
	defer t.Detach()
	s.lock.Sync(t, func() {
		for _, k := range in.keys {
			s.m.Put(k, k<<seqBits)
		}
	})
	return s
}

func (s *roSystem) worker(id int, tr *tracer) worker {
	w := &roWorker{s: s, t: s.vm.Attach(fmt.Sprint("worker-", id)), tr: tr}
	w.get = w.body
	w.getTraced = func() int64 { b := tr.bodyBegin(); v := w.body(); tr.bodyEnd(b); return v }
	return w
}

func (s *roSystem) counters() counters {
	var c counters
	c.addLock(s.lock.Stats())
	return c
}

func (s *roSystem) audit(uint64) error {
	if n := s.m.Len(); n != len(s.keys) {
		return fmt.Errorf("hashmap holds %d keys, want %d", n, len(s.keys))
	}
	for _, k := range s.keys {
		if v, ok := s.m.Get(k); !ok || v>>seqBits != k {
			return fmt.Errorf("key %d holds %#x (present %v), want its own encoding", k, v, ok)
		}
	}
	return nil
}

type roWorker struct {
	s  *roSystem
	t  *solero.Thread
	tr *tracer
	k  int64

	get, getTraced func() int64
	failed         uint64
}

func (w *roWorker) body() int64 {
	if v, ok := w.s.m.Get(w.k); ok {
		return v
	}
	return -1
}

func (w *roWorker) do(o op, traced bool) bool {
	w.k = w.s.keys[o.idx]
	fn := w.get
	if traced {
		fn = w.getTraced
		w.tr.lockBegin()
	}
	v := solero.ReadOnly(w.s.lock, w.t, fn)
	if traced {
		w.tr.lockEnd()
	}
	if v>>seqBits != w.k {
		w.failed++
	}
	return false
}

func (w *roWorker) totals() (uint64, uint64) { return w.failed, 0 }

// --- rw5-rmap ---

type rmapSystem struct {
	vm   *solero.VM
	m    *rmap.Map[int64]
	reg  *metrics.Registry
	keys []int64
}

// contendedConfig is the lock configuration of the two workloads whose locks
// contend: the default configuration with fat mode backed by the compact
// monitor table. With the default per-lock monitor, a contender's FLC bit can
// land on a freshly inflated word, after which no thread can enter the fat
// lock again and every worker spins forever; that stalled about one round in
// 30 to 60 of either workload (README.md, "Findings"), and a workload must
// not fail operations. The elided read, the flat write path and the spin
// tiers are the same code in both configurations; inflation, fat-mode entry
// and exit, and deflation differ.
func contendedConfig() *core.Config {
	cfg := *core.DefaultConfig
	cfg.Monitors = montable.New(montable.Config{})
	return &cfg
}

func buildRmap(in *inputs) system {
	reg := metrics.New(0)
	cfg := contendedConfig()
	cfg.Metrics = reg
	s := &rmapSystem{vm: solero.NewVM(), m: rmap.New[int64](16, cfg), reg: reg, keys: in.keys}
	t := s.vm.Attach("setup")
	defer t.Detach()
	for _, k := range in.keys {
		s.m.Put(t, k, k<<seqBits)
	}
	return s
}

func (s *rmapSystem) worker(id int, tr *tracer) worker {
	w := &rmapWorker{s: s, t: s.vm.Attach(fmt.Sprint("worker-", id)), tr: tr}
	w.compute = func() int64 { w.computed = true; return w.k << seqBits }
	return w
}

// counters reads what rmap exports: its aggregated elision counters and the
// shared registry's abort taxonomy. The shard locks themselves are not
// exported, so the slow-path counters stay zero.
func (s *rmapSystem) counters() counters {
	st := s.m.Stats()
	c := counters{
		elisionAttempts: st.ElisionAttempts,
		elisionFailures: st.ElisionFailures,
		fallbacks:       st.Fallbacks,
	}
	for i, cause := range abortCauses {
		c.aborts[i] = s.reg.AbortCount(cause)
	}
	return c
}

func (s *rmapSystem) audit(uint64) error {
	t := s.vm.Attach("audit")
	defer t.Detach()
	want := make(map[int64]bool, len(s.keys))
	for _, k := range s.keys {
		want[k] = true
	}
	var err error
	seen := 0
	s.m.Range(t, func(k, v int64) bool {
		seen++
		if !want[k] || v>>seqBits != k {
			err = fmt.Errorf("rmap holds %d=%#x, which is not a generated key with its own encoding", k, v)
		}
		return err == nil
	})
	if err == nil && seen != len(s.keys) {
		err = fmt.Errorf("rmap holds %d keys, want %d", seen, len(s.keys))
	}
	return err
}

type rmapWorker struct {
	s        *rmapSystem
	t        *solero.Thread
	tr       *tracer
	k        int64
	seq      int64
	computed bool

	compute        func() int64
	failed, writes uint64
}

func (w *rmapWorker) do(o op, traced bool) bool {
	k := w.s.keys[o.idx]
	if traced {
		w.tr.lockBegin()
	}
	var v int64
	ok := true
	switch o.kind {
	case opWrite:
		w.seq++
		w.s.m.Put(w.t, k, k<<seqBits|w.seq&seqMask)
	case opReadMostly:
		w.k, w.computed = k, false
		v = w.s.m.GetOrCompute(w.t, k, w.compute)
		ok = !w.computed // every key is present: computing is a failure
	default:
		var present bool
		v, present = w.s.m.Get(w.t, k)
		ok = present
	}
	if traced {
		w.tr.lockEnd()
	}
	if o.kind == opWrite {
		w.writes++
		return true
	}
	if !ok || v>>seqBits != k {
		w.failed++
	}
	return false
}

func (w *rmapWorker) totals() (uint64, uint64) { return w.failed, w.writes }

// --- many-locks ---

// object is a Java-style object with its own monitor and two fields that
// every writing section keeps equal.
type object struct {
	lock *solero.Lock
	a, b atomic.Int64
}

type manySystem struct {
	vm   *solero.VM
	objs []*object
}

func buildMany(in *inputs) system {
	s := &manySystem{vm: solero.NewVM(), objs: make([]*object, in.objects)}
	cfg := contendedConfig()
	for i := range s.objs {
		s.objs[i] = &object{lock: solero.NewLock(cfg)}
	}
	return s
}

func (s *manySystem) worker(id int, tr *tracer) worker {
	w := &manyWorker{s: s, t: s.vm.Attach(fmt.Sprint("worker-", id)), tr: tr}
	w.read = w.readBody
	w.inc = w.incBody
	w.readTraced = func() [2]int64 { b := tr.bodyBegin(); v := w.readBody(); tr.bodyEnd(b); return v }
	w.incTraced = func() { b := tr.bodyBegin(); w.incBody(); tr.bodyEnd(b) }
	return w
}

func (s *manySystem) counters() counters {
	var c counters
	for _, o := range s.objs {
		c.addLock(o.lock.Stats())
	}
	return c
}

func (s *manySystem) audit(writes uint64) error {
	var sum int64
	for i, o := range s.objs {
		a, b := o.a.Load(), o.b.Load()
		if a != b {
			return fmt.Errorf("object %d has counters %d != %d", i, a, b)
		}
		sum += a
	}
	if uint64(sum) != writes {
		return fmt.Errorf("counters sum to %d, want %d completed writes", sum, writes)
	}
	return nil
}

type manyWorker struct {
	s   *manySystem
	t   *solero.Thread
	tr  *tracer
	cur *object

	read, readTraced func() [2]int64
	inc, incTraced   func()
	failed, writes   uint64
}

func (w *manyWorker) readBody() [2]int64 { return [2]int64{w.cur.a.Load(), w.cur.b.Load()} }

func (w *manyWorker) incBody() {
	w.cur.a.Store(w.cur.a.Load() + 1)
	w.cur.b.Store(w.cur.b.Load() + 1)
}

func (w *manyWorker) do(o op, traced bool) bool {
	w.cur = w.s.objs[o.idx]
	if o.kind == opWrite {
		fn := w.inc
		if traced {
			fn = w.incTraced
			w.tr.lockBegin()
		}
		w.cur.lock.Sync(w.t, fn)
		if traced {
			w.tr.lockEnd()
		}
		w.writes++
		return true
	}
	fn := w.read
	if traced {
		fn = w.readTraced
		w.tr.lockBegin()
	}
	v := solero.ReadOnly(w.cur.lock, w.t, fn)
	if traced {
		w.tr.lockEnd()
	}
	if v[0] != v[1] {
		w.failed++
	}
	return false
}

func (w *manyWorker) totals() (uint64, uint64) { return w.failed, w.writes }
