package jbb

import (
	"math"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/jthread"
	"repro/internal/workload"
)

var quick = harness.Options{
	Threads:       2,
	Duration:      20 * time.Millisecond,
	Runs:          1,
	InnerMeasures: 1,
}

func TestRunsUnderAllImpls(t *testing.T) {
	for _, impl := range workload.PaperImpls {
		t.Run(impl.String(), func(t *testing.T) {
			vm := jthread.NewVM()
			b := New(impl, 2)
			res := harness.Measure(vm, quick, b.Worker())
			if res.OpsPerSec <= 0 {
				t.Fatalf("no throughput")
			}
		})
	}
}

func TestReadOnlyRatioMatchesTable1(t *testing.T) {
	vm := jthread.NewVM()
	b := New(workload.ImplSolero, 2)
	harness.Measure(vm, quick, b.Worker())
	total, ro := b.LockOps()
	if total == 0 {
		t.Fatalf("no lock ops")
	}
	got := 100 * float64(ro) / float64(total)
	// Paper's Table 1: 53.6% read-only for SPECjbb2005; our mix targets
	// ReadOnlyPct (54). Allow sampling noise.
	if math.Abs(got-float64(ReadOnlyPct)) > 6 {
		t.Fatalf("read-only ratio = %.1f%%, want ~%d%%", got, ReadOnlyPct)
	}
}

func TestPerWarehouseIsolationGivesLowFailures(t *testing.T) {
	vm := jthread.NewVM()
	b := New(workload.ImplSolero, 4)
	o := quick
	o.Threads = 4
	harness.Measure(vm, o, b.Worker())
	// Threads own their warehouses: the paper reports ~0% failures.
	if fr := b.FailureRatio(); fr > 2 {
		t.Fatalf("failure ratio = %.2f%%, want ~0", fr)
	}
}

func TestTransactionsPreserveInvariants(t *testing.T) {
	vm := jthread.NewVM()
	b := New(workload.ImplSolero, 1)
	harness.Measure(vm, quick, b.Worker())
	w := b.warehouses[0]
	// Stock keys unchanged (values mutate, keys do not).
	if w.stock.Len() != stockItems {
		t.Fatalf("stock size = %d", w.stock.Len())
	}
	if w.customers.Len() != customers {
		t.Fatalf("customers size = %d", w.customers.Len())
	}
	// Order ids allocated monotonically.
	if w.nextOrder < 0 {
		t.Fatalf("order counter corrupt: %d", w.nextOrder)
	}
}
