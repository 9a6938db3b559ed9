package backend

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/jthread"
)

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		be, err := New(name, Options{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if be.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, be.Name())
		}
		if be.Stats() == nil {
			t.Fatalf("%s: nil stats", name)
		}
	}
	if _, err := New("nope", Options{}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestTableVariantNamesRetired pins the one fat-mode path: the vmlock and
// solero backends each rent from their own monitor table, and the retired
// "-mt" names hit the ordinary unknown-backend error.
func TestTableVariantNamesRetired(t *testing.T) {
	for _, name := range []string{"vmlock", "solero"} {
		be, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tb, ok := be.(TableBacked); !ok || tb.MonitorTable() == nil {
			t.Fatalf("%s has no monitor table of its own", name)
		}
	}
	for _, name := range []string{"solero-mt", "vmlock-mt"} {
		_, err := New(name, Options{})
		want := fmt.Sprintf("backend: unknown backend %q (have %v)", name, Names())
		if err == nil || err.Error() != want {
			t.Fatalf("New(%q) error = %v, want %q", name, err, want)
		}
	}
}

func TestSoleroImplementsReadMostly(t *testing.T) {
	be, _ := New("solero", Options{})
	if _, ok := be.(ReadMostlyBackend); !ok {
		t.Fatal("solero backend lost its ReadMostly surface")
	}
	for _, name := range []string{"vmlock", "rwlock"} {
		be, _ := New(name, Options{})
		if _, ok := be.(ReadMostlyBackend); ok {
			t.Fatalf("%s claims ReadMostly support it does not have", name)
		}
	}
}

// TestOracleWorkloadAllBackends runs every backend through the shared
// oracle workload with real (uninstrumented) concurrency: writers mutate a
// torn-pair invariant under WriteSync, readers observe it under ReadSync,
// and upgraders (where supported) upgrade in place. Run under -race this
// doubles as the data-race certification for each backend's fast paths.
func TestOracleWorkloadAllBackends(t *testing.T) {
	const (
		writers = 2
		readers = 2
		ops     = 2000
	)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			be, err := New(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			vm := jthread.NewVM()

			// a/b must always agree outside write sections; csOwner is
			// the immediate mutual-exclusion oracle for writers.
			var a, b, csOwner atomic.Uint64
			var torn, exclusion atomic.Uint64

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				th := vm.Attach(fmt.Sprintf("writer%d", w))
				wg.Add(1)
				go func(th *jthread.Thread) {
					defer wg.Done()
					tid := th.ID()
					for i := 0; i < ops; i++ {
						be.WriteSync(th, func() {
							if !csOwner.CompareAndSwap(0, tid) {
								exclusion.Add(1)
							}
							a.Store(a.Load() + 1)
							b.Store(b.Load() + 1)
							csOwner.CompareAndSwap(tid, 0)
						})
					}
				}(th)
			}
			for r := 0; r < readers; r++ {
				th := vm.Attach(fmt.Sprintf("reader%d", r))
				wg.Add(1)
				go func(th *jthread.Thread) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						var ra, rb uint64
						be.ReadSync(th, func() {
							ra = a.Load()
							rb = b.Load()
						})
						if ra != rb {
							torn.Add(1)
						}
					}
				}(th)
			}
			upgrades := 0
			if rm, ok := be.(ReadMostlyBackend); ok {
				upgrades = ops
				th := vm.Attach("upgrader")
				wg.Add(1)
				go func() {
					defer wg.Done()
					tid := th.ID()
					for i := 0; i < ops; i++ {
						rm.ReadMostly(th, func(u Upgrader) {
							pre := a.Load()
							u.BeforeWrite()
							if u.Upgraded() && a.Load() != pre {
								torn.Add(1)
							}
							if !csOwner.CompareAndSwap(0, tid) {
								exclusion.Add(1)
							}
							a.Store(a.Load() + 1)
							b.Store(b.Load() + 1)
							csOwner.CompareAndSwap(tid, 0)
						})
					}
				}()
			}
			wg.Wait()

			if n := exclusion.Load(); n != 0 {
				t.Errorf("%d mutual-exclusion violations", n)
			}
			if n := torn.Load(); n != 0 {
				t.Errorf("%d torn read observations", n)
			}
			want := uint64(writers*ops + upgrades)
			if av, bv := a.Load(), b.Load(); av != bv || av != want {
				t.Errorf("final state a=%d b=%d, want both %d", av, bv, want)
			}
		})
	}
}
