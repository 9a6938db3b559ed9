// Package lockorderseed is the inverted-CI seed for the lockorder
// analyzer: nothing but two two-lock ABBA deadlocks, the second closed
// through the public solero.ReadOnly value form. `make lockorder-catch`
// runs the analyzer over this package and fails the build unless both
// cycles are reported — the analyzer going silent here means it rotted.
// Living under testdata keeps the seed out of the module build and out of
// `make lint`'s clean-tree guarantee.
package lockorderseed

import (
	"repro/internal/core"
	"repro/internal/jthread"
	"repro/solero"
)

var (
	ledgerMu = core.New(nil)
	auditMu  = core.New(nil)

	catalogMu = solero.NewLock(nil)
	priceMu   = solero.NewLock(nil)
)

func post(t *jthread.Thread) {
	ledgerMu.Lock(t)
	auditMu.Lock(t)
	auditMu.Unlock(t)
	ledgerMu.Unlock(t)
}

func reconcile(t *jthread.Thread) {
	auditMu.Lock(t)
	ledgerMu.Lock(t)
	ledgerMu.Unlock(t)
	auditMu.Unlock(t)
}

// quote reads priceMu through the elided value form while holding
// catalogMu; its fallback arm acquires priceMu.
func quote(t *jthread.Thread) int64 {
	catalogMu.Lock(t)
	defer catalogMu.Unlock(t)
	return solero.ReadOnly(priceMu, t, func() int64 { return 1 })
}

func reprice(t *jthread.Thread) {
	priceMu.Lock(t)
	catalogMu.Lock(t)
	catalogMu.Unlock(t)
	priceMu.Unlock(t)
}
