package workload

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jthread"
)

var quick = harness.Options{
	Threads:       2,
	Duration:      10 * time.Millisecond,
	Runs:          1,
	InnerMeasures: 1,
	Warmup:        0,
}

func TestEmptyAllImpls(t *testing.T) {
	for _, impl := range Fig10Impls {
		t.Run(impl.String(), func(t *testing.T) {
			vm := jthread.NewVM()
			e := NewEmpty(impl)
			res := harness.Measure(vm, quick, e.Worker())
			if res.OpsPerSec <= 0 {
				t.Fatalf("no throughput")
			}
		})
	}
}

func TestMapBenchAllImplsAndKinds(t *testing.T) {
	for _, kind := range []MapKind{Hash, Tree} {
		for _, impl := range PaperImpls {
			t.Run(kind.String()+"/"+impl.String(), func(t *testing.T) {
				vm := jthread.NewVM()
				b := NewMapBenchConfig(kind, impl, 5, 256, 1, core.CountedConfig(nil))
				res := harness.Measure(vm, quick, b.Worker())
				if res.OpsPerSec <= 0 {
					t.Fatalf("no throughput")
				}
				if err := b.Verify(); err != nil {
					t.Fatal(err)
				}
				total, readOnly := b.LockOps()
				if total == 0 {
					t.Fatalf("no lock ops recorded")
				}
				if impl != ImplLock && readOnly == 0 {
					t.Fatalf("no read-only ops recorded")
				}
			})
		}
	}
}

func TestFineGrainedSharding(t *testing.T) {
	vm := jthread.NewVM()
	b := NewMapBench(Hash, ImplSolero, 5, 256, 4)
	if len(b.guards) != 4 {
		t.Fatalf("shards = %d", len(b.guards))
	}
	harness.Measure(vm, quick, b.Worker())
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFailureRatioBounds(t *testing.T) {
	vm := jthread.NewVM()
	b := NewMapBenchConfig(Hash, ImplSolero, 50, 64, 1, core.CountedConfig(nil))
	o := quick
	o.Threads = 4
	harness.Measure(vm, o, b.Worker())
	fr := b.FailureRatio()
	if fr < 0 || fr > 100 {
		t.Fatalf("failure ratio out of range: %f", fr)
	}
	// Pure reads, single thread: failures should be zero.
	vm2 := jthread.NewVM()
	b2 := NewMapBenchConfig(Hash, ImplSolero, 0, 64, 1, core.CountedConfig(nil))
	o2 := quick
	o2.Threads = 1
	harness.Measure(vm2, o2, b2.Worker())
	if b2.FailureRatio() != 0 {
		t.Fatalf("single-thread read-only failures: %f", b2.FailureRatio())
	}
}

func TestZeroWriteKeepsValuesIntact(t *testing.T) {
	vm := jthread.NewVM()
	b := NewMapBench(Tree, ImplSolero, 0, 128, 1)
	o := quick
	o.Threads = 3
	harness.Measure(vm, o, b.Worker())
	for k := int64(0); k < 128; k++ {
		v, ok := b.tms[0].Get(k)
		if !ok || v != k {
			t.Fatalf("key %d corrupted: %d %v", k, v, ok)
		}
	}
}

func TestImplStrings(t *testing.T) {
	want := map[Impl]string{
		ImplLock: "Lock", ImplRWLock: "RWLock", ImplSolero: "SOLERO",
		ImplSoleroUnelided: "Unelided-SOLERO",
	}
	for im, s := range want {
		if im.String() != s {
			t.Fatalf("%v.String() = %q", im, im.String())
		}
	}
	if Hash.String() != "HashMap" || Tree.String() != "TreeMap" {
		t.Fatalf("kind strings wrong")
	}
}

func TestGuardDispatch(t *testing.T) {
	vm := jthread.NewVM()
	th := vm.Attach("t")
	for _, impl := range Fig10Impls {
		g := NewGuard(impl)
		ran := 0
		g.Read(th, func() { ran++ })
		g.Write(th, func() { ran++ })
		if ran != 2 {
			t.Fatalf("%v: sections ran %d times", impl, ran)
		}
	}
	if NewGuard(ImplLock).SoleroStats() != nil {
		t.Fatalf("conventional guard has SOLERO stats")
	}
	if NewGuard(ImplSolero).SoleroStats() == nil {
		t.Fatalf("SOLERO guard missing stats")
	}
}

func TestUnelidedNeverElides(t *testing.T) {
	vm := jthread.NewVM()
	th := vm.Attach("t")
	g := NewGuardConfig(ImplSoleroUnelided, core.CountedConfig(nil))
	for i := 0; i < 10; i++ {
		g.Read(th, func() {})
	}
	if g.SoleroStats().ElisionAttempts.Load() != 0 {
		t.Fatalf("unelided impl speculated")
	}
}

// TestGetSinkCountsExactlyOnce pins the opSink placement fixed by the
// specsafety analyzer: get folds the lookup result into the global sink
// exactly once per call, even when an elided section aborts and
// re-executes under writer contention. The old form — atomic.Add inside
// the ReadOnly closure — re-ran on every speculative retry (double
// counting) and put a contended write on the write-free read fast path.
func TestGetSinkCountsExactlyOnce(t *testing.T) {
	const entries = 64
	vm := jthread.NewVM()
	th := vm.Attach("t")
	b := NewMapBench(Hash, ImplSolero, 0, entries, 1)
	// Keys are preloaded with value k, so one sweep adds exactly sum(k).
	want := uint64(entries * (entries - 1) / 2)
	before := opSink.Load()
	for k := int64(0); k < entries; k++ {
		b.get(th, 0, k)
	}
	if got := opSink.Load() - before; got != want {
		t.Fatalf("single-threaded sink delta = %d, want %d", got, want)
	}

	// Contended sweep: a writer re-Puts every key with its own value, so
	// reads keep returning k while the write traffic forces speculative
	// aborts and re-executions. Exactly-once accounting must still hold.
	const rounds, readers = 50, 2
	var stop atomic.Bool
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		wth := vm.Attach("writer")
		for !stop.Load() {
			for k := int64(0); k < entries; k++ {
				b.put(wth, 0, k, k)
			}
		}
	}()
	before = opSink.Load()
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			rth := vm.Attach("reader")
			for i := 0; i < rounds; i++ {
				for k := int64(0); k < entries; k++ {
					b.get(rth, 0, k)
				}
			}
		}()
	}
	rg.Wait()
	stop.Store(true)
	writers.Wait()
	if got, wantAll := opSink.Load()-before, uint64(readers*rounds)*want; got != wantAll {
		t.Fatalf("contended sink delta = %d, want %d (speculative re-execution double-counted?)", got, wantAll)
	}
}
