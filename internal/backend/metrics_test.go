package backend

import (
	"sync"
	"testing"
	"time"

	"repro/internal/jthread"
	"repro/internal/metrics"
)

// TestRWLockGateParkMetrics blocks a reader behind a writer and checks the
// park surfaces as a "gate-park" taxonomy event with dwell in park_dwell,
// and that the contended acquisition records an acquire_wait sample.
func TestRWLockGateParkMetrics(t *testing.T) {
	reg := metrics.New(1)
	be, err := New("rwlock", Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	vm := jthread.NewVM()
	writer := vm.Attach("writer")
	reader := vm.Attach("reader")

	be.Lock(writer)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		be.ReadSync(reader, func() {})
	}()
	// Hold the write lock until the reader has registered at the gate
	// (readParks bumps before parking; gate-park is recorded after).
	deadline := time.Now().Add(2 * time.Second)
	for be.Stats()["readParks"] == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	be.Unlock(writer)
	wg.Wait()

	if n := reg.AbortCount(metrics.AbortGatePark); n == 0 {
		t.Fatal("blocked reader recorded no gate-park event")
	}
	if n := reg.Park.Snapshot().Count; n == 0 {
		t.Fatal("gate park left park_dwell empty")
	}
	if n := reg.Acquire.Snapshot().Count; n == 0 {
		t.Fatal("contended read acquisition left acquire_wait empty")
	}
}

// TestMontableSweepStallMetrics drives a table-backed backend's sweeper
// against a held (busy) fat monitor and checks stalled passes are counted
// under "sweep-stall" while clean passes are not.
func TestMontableSweepStallMetrics(t *testing.T) {
	reg := metrics.New(1)
	be, err := New("solero", Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	tb := be.(TableBacked).MonitorTable()
	vm := jthread.NewVM()
	holder := vm.Attach("holder")
	waiter := vm.Attach("waiter")

	// Inflate: a waiter timing out on a held lock leaves a bound monitor.
	be.Lock(holder)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		be.Lock(waiter)
		be.Unlock(waiter)
	}()

	// Sweep while the monitor is live: once the contender binds the table
	// entry, passes stall on the pinned/busy entry. Epochs advance per
	// pass, so the entry cannot hide behind the freshness window forever.
	deadline := time.Now().Add(2 * time.Second)
	for reg.AbortCount(metrics.AbortSweepStall) == 0 && time.Now().Before(deadline) {
		tb.Sweep(holder.ID())
		time.Sleep(100 * time.Microsecond)
	}
	stalls := reg.AbortCount(metrics.AbortSweepStall)
	be.Unlock(holder)
	wg.Wait()

	if stalls == 0 {
		t.Fatal("sweeps over a busy monitor recorded no sweep-stall events")
	}
	if n := reg.Sweep.Snapshot().Count; n == 0 {
		t.Fatal("sweeps recorded no sweep_latency samples")
	}
}

// TestMonitorParkMetrics drives one contender through each bi-modal lock's
// contention path behind a held lock and checks that both locks report the
// wait the same way, through the one wait seam: the slow acquisition, its
// spin episode and tier-3 yields are each timed, and every FLC park or
// monitor entry is one "monitor-park" event and one park_dwell sample.
func TestMonitorParkMetrics(t *testing.T) {
	for _, name := range []string{"vmlock", "solero"} {
		t.Run(name, func(t *testing.T) {
			reg := metrics.New(1)
			be, err := New(name, Options{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			vm := jthread.NewVM()
			holder := vm.Attach("holder")
			contender := vm.Attach("contender")

			be.Lock(holder)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				be.Lock(contender)
				be.Unlock(contender)
			}()
			// FLC parks are timed, so the contender's first park ends
			// (and records) while the holder still holds.
			deadline := time.Now().Add(2 * time.Second)
			for reg.AbortCount(metrics.AbortMonitorPark) == 0 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			be.Unlock(holder)
			wg.Wait()

			parks := reg.AbortCount(metrics.AbortMonitorPark)
			if parks == 0 {
				t.Fatal("FLC contention recorded no monitor-park event")
			}
			if n := reg.Park.Snapshot().Count; n != parks {
				t.Fatalf("park_dwell count = %d, want one per monitor-park event (%d)", n, parks)
			}
			for _, h := range []*metrics.Histogram{reg.Acquire, reg.Spin, reg.Yield} {
				if h.Snapshot().Count == 0 {
					t.Errorf("contended acquisition left %s empty", h.Name())
				}
			}
		})
	}
}
