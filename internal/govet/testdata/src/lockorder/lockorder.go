// Package lockorder is golden testdata for the lockorder analyzer: two
// ABBA cycles (direct and interprocedural), a field-lock cycle through
// Sync closures, cycles closed through the value forms
// core.ReadOnlyValue and solero.ReadOnly and through a named-function
// Sync body, a wait performed while another lock is held, and the
// silent cases — consistent orderings, reentrancy, branch-scoped holds.
package lockorder

import (
	"repro/internal/core"
	"repro/internal/jthread"
	"repro/solero"
)

var (
	alpha = core.New(nil)
	beta  = core.New(nil)

	gamma = core.New(nil)
	delta = core.New(nil)

	inner = core.New(nil)
	outer = core.New(nil)

	queueMu = core.New(nil)
	stateMu = core.New(nil)

	indexMu = core.New(nil)
	pagesMu = core.New(nil)

	ordersMu = solero.NewLock(nil)
	stockMu  = solero.NewLock(nil)

	journalMu = core.New(nil)
	mirrorMu  = core.New(nil)

	// clerk is the thread a named-function section body runs on.
	clerk *jthread.Thread
)

// abba1 orders alpha before beta; together with abba2 that closes the
// classic ABBA cycle. The report lands on the acquisition that completes
// the witness path out of the cycle's smallest node.
func abba1(t *jthread.Thread) {
	alpha.Lock(t)
	beta.Lock(t) // want `lock-order cycle: .*alpha -> .*beta -> .*alpha; witness: .*beta acquired while holding .*alpha at lockorder\.go:\d+; .*alpha acquired while holding .*beta at lockorder\.go:\d+`
	beta.Unlock(t)
	alpha.Unlock(t)
}

func abba2(t *jthread.Thread) {
	beta.Lock(t)
	alpha.Lock(t)
	alpha.Unlock(t)
	beta.Unlock(t)
}

// pair holds two distinct lock fields; hotCold/coldHot close a cycle on
// the field identities pair.hot / pair.cold.
type pair struct {
	hot, cold *core.Lock
	a, b      int64
}

func (p *pair) hotCold(t *jthread.Thread) int64 {
	var out int64
	p.hot.Sync(t, func() {
		p.cold.Sync(t, func() {
			out = p.a + p.b
		})
	})
	return out
}

func (p *pair) coldHot(t *jthread.Thread) int64 {
	var out int64
	p.cold.Sync(t, func() {
		p.hot.Sync(t, func() { // want `lock-order cycle: pair\.cold -> pair\.hot -> pair\.cold`
			out = p.b - p.a
		})
	})
	return out
}

// lockInner gives the interprocedural cycle its second half: viaHelper
// holds outer across this call, so the summary yields outer -> inner.
func lockInner(t *jthread.Thread) {
	inner.Lock(t)
	inner.Unlock(t)
}

func viaHelper(t *jthread.Thread) {
	outer.Lock(t)
	lockInner(t)
	outer.Unlock(t)
}

func reversed(t *jthread.Thread) {
	inner.Lock(t)
	outer.Lock(t) // want `lock-order cycle: .*inner -> .*outer -> .*inner`
	outer.Unlock(t)
	inner.Unlock(t)
}

// badWait parks on queueMu with stateMu still held: nothing releases
// stateMu while the thread waits.
func badWait(t *jthread.Thread) {
	stateMu.Lock(t)
	queueMu.Lock(t)
	queueMu.Wait(t) // want `waits on .*queueMu while holding .*stateMu; the held lock is not released while parked`
	queueMu.Unlock(t)
	stateMu.Unlock(t)
}

// goodWait holds only the lock it waits on — the legal condition-wait
// shape.
func goodWait(t *jthread.Thread) {
	queueMu.Lock(t)
	queueMu.Wait(t)
	queueMu.Notify(t)
	queueMu.Unlock(t)
}

// consistent acquires gamma before delta everywhere (directly here,
// through a helper below): one direction only, no cycle, no report.
func consistent(t *jthread.Thread) {
	gamma.Lock(t)
	delta.Lock(t)
	delta.Unlock(t)
	gamma.Unlock(t)
}

func lockDelta(t *jthread.Thread) {
	delta.Lock(t)
	delta.Unlock(t)
}

func consistentViaHelper(t *jthread.Thread) {
	gamma.Lock(t)
	lockDelta(t)
	gamma.Unlock(t)
}

// reentrant re-acquires alpha through a helper while already holding it:
// SOLERO locks are reentrant, so the self-edge is not an ordering.
func readAlpha(t *jthread.Thread) {
	alpha.Lock(t)
	alpha.Unlock(t)
}

func reentrant(t *jthread.Thread) {
	alpha.Lock(t)
	readAlpha(t)
	alpha.Unlock(t)
}

// branchScoped acquires gamma only inside the branch; the hold must not
// leak past the if, so the later delta acquisition orders nothing.
func branchScoped(t *jthread.Thread, cond bool) {
	if cond {
		gamma.Lock(t)
		gamma.Unlock(t)
	}
	delta.Lock(t)
	delta.Unlock(t)
}

// deferScoped holds gamma to the end of the function via defer: the
// delta acquisition below is a real gamma -> delta ordering (consistent
// with the rest of the file, so still silent).
func deferScoped(t *jthread.Thread) {
	gamma.Lock(t)
	defer gamma.Unlock(t)
	delta.Lock(t)
	delta.Unlock(t)
}

// valueIndexPages orders indexMu before pagesMu through the elided value
// form: core.ReadOnlyValue acquires pagesMu on its fallback arm.
// valuePagesIndex closes the cycle the other way round.
func valueIndexPages(t *jthread.Thread) int {
	indexMu.Lock(t)
	defer indexMu.Unlock(t)
	return core.ReadOnlyValue(pagesMu, t, func() int { return 1 }) // want `lock-order cycle: .*indexMu -> .*pagesMu -> .*indexMu; witness: .*pagesMu acquired while holding .*indexMu at lockorder\.go:\d+`
}

func valuePagesIndex(t *jthread.Thread) {
	pagesMu.Lock(t)
	indexMu.Lock(t)
	indexMu.Unlock(t)
	pagesMu.Unlock(t)
}

// soleroOrdersStock reads under stockMu through the public value form
// while holding ordersMu; soleroStockOrders takes them the other way.
func soleroOrdersStock(t *jthread.Thread) int {
	ordersMu.Lock(t)
	defer ordersMu.Unlock(t)
	return solero.ReadOnly(stockMu, t, func() int { return 2 }) // want `lock-order cycle: .*ordersMu -> .*stockMu -> .*ordersMu; witness: .*stockMu acquired while holding .*ordersMu at lockorder\.go:\d+`
}

func soleroStockOrders(t *jthread.Thread) {
	stockMu.Sync(t, func() {
		ordersMu.Sync(t, func() {})
	})
}

// takeMirror is a named section body: journalThenMirror holds journalMu
// while Sync runs it, so it orders journalMu before mirrorMu.
func takeMirror() {
	mirrorMu.Lock(clerk)
	mirrorMu.Unlock(clerk)
}

func journalThenMirror(t *jthread.Thread) {
	journalMu.Sync(t, takeMirror) // want `lock-order cycle: .*journalMu -> .*mirrorMu -> .*journalMu; witness: .*mirrorMu acquired while holding .*journalMu at lockorder\.go:\d+`
}

func mirrorThenJournal(t *jthread.Thread) {
	mirrorMu.Lock(t)
	journalMu.Lock(t)
	journalMu.Unlock(t)
	mirrorMu.Unlock(t)
}
