package solero_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/solero"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	vm := solero.NewVM()
	th := vm.Attach("main")
	lock := solero.NewLock(solero.CountedConfig(nil))

	var counter atomic.Int64
	lock.Sync(th, func() { counter.Add(1) })
	got := solero.ReadOnly(lock, th, func() int64 { return counter.Load() })
	if got != 1 {
		t.Fatalf("ReadOnly = %d", got)
	}
	lock.ReadMostly(th, func(s *solero.Section) {
		if counter.Load() < 0 {
			s.BeforeWrite()
			counter.Store(0)
		}
	})
	st := lock.Stats()
	if st.ElisionSuccesses.Load() != 2 {
		t.Fatalf("elisions = %d, want 2 (ReadOnly + non-writing ReadMostly)", st.ElisionSuccesses.Load())
	}
}

func TestFacadeBaselines(t *testing.T) {
	vm := solero.NewVM()
	th := vm.Attach("main")

	mon := solero.NewMonitorLock(nil)
	mon.Sync(th, func() {})

	var rw solero.RWLock
	rw.ReadSync(th, func() {})
	rw.WriteSync(th, func() {})

	var sq solero.SeqLock
	sq.WriteSync(func() {})
	sq.Read(func() {})
	if sq.Seq() != 2 {
		t.Fatalf("seq = %d", sq.Seq())
	}
}

func TestFacadeConcurrentConsistency(t *testing.T) {
	vm := solero.NewVM()
	lock := solero.NewLock(nil)
	var a, b atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := vm.Attach("w")
		defer th.Detach()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lock.Sync(th, func() {
				a.Store(i)
				b.Store(i)
			})
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			th := vm.Attach("r")
			defer th.Detach()
			for i := 0; i < 5000; i++ {
				pair := solero.ReadOnly(lock, th, func() [2]uint64 {
					return [2]uint64{a.Load(), b.Load()}
				})
				if pair[0] != pair[1] {
					t.Errorf("torn pair through facade: %v", pair)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}
