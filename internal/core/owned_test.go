package core

import (
	"sync"
	"testing"

	"repro/internal/jthread"
)

// The tests in this file pin the single-writer counter slots (bump): each
// ends with exact totals at quiescence, however the bumping threads map
// onto stripes and owners.

// runOwnedLoad has every thread run reads elided sections on l, all
// concurrently, and then — once every read is done, so each one elides —
// writes writing sections, again concurrently. Then the threads detach.
func runOwnedLoad(l *Lock, ths []*jthread.Thread, reads, writes int) {
	var readsDone, wg sync.WaitGroup
	readsDone.Add(len(ths))
	for _, th := range ths {
		wg.Add(1)
		go func(th *jthread.Thread) {
			defer wg.Done()
			defer th.Detach()
			for i := 0; i < reads; i++ {
				if i%2 == 0 {
					l.ReadOnly(th, func() {})
				} else {
					ReadOnlyValue(l, th, func() int { return i })
				}
			}
			readsDone.Done()
			readsDone.Wait()
			for i := 0; i < writes; i++ {
				l.Sync(th, func() {})
			}
		}(th)
	}
	wg.Wait()
}

// checkOwnedTotals asserts the single-writer counters are exact: every
// read elided (runOwnedLoad runs no writer beside them), and every writing
// acquisition counts once, fast or — when the writers contended — slow.
func checkOwnedTotals(t *testing.T, st *Stats, reads, writes uint64) {
	t.Helper()
	snap := st.Snapshot()
	if snap["elisionSuccesses"] != reads || snap["elisionAttempts"] != reads {
		t.Fatalf("elisionSuccesses/Attempts = %d/%d, want %d (%v)",
			snap["elisionSuccesses"], snap["elisionAttempts"], reads, snap)
	}
	if got := snap["fastAcquires"] + snap["slowAcquires"]; got != writes {
		t.Fatalf("fastAcquires+slowAcquires = %d, want %d (%v)", got, writes, snap)
	}
	var sum uint64
	for i := 0; i < st.NumStripes(); i++ {
		sum += st.StripeSnapshot(i)["elisionSuccesses"]
	}
	if sum != snap["elisionSuccesses"] {
		t.Fatalf("stripes sum to %d successes, Snapshot says %d", sum, snap["elisionSuccesses"])
	}
}

// TestOwnedSlotsSnapshotWhileOwnerBumps reads Snapshot concurrently with a
// stripe's owner bumping it with plain stores: under -race nothing may be
// reported, every counter must be monotone across snapshots, and the
// totals exact at the end.
func TestOwnedSlotsSnapshotWhileOwnerBumps(t *testing.T) {
	const reads, writes = 20000, 2000
	vm := jthread.NewVM()
	l := New(stripedCfg(2))
	owner := vm.Attach("owner")

	stop := make(chan struct{})
	var snaps sync.WaitGroup
	for g := 0; g < 2; g++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			prev := l.Stats().Snapshot()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := l.Stats().Snapshot()
				for k, v := range cur {
					if v < prev[k] {
						t.Errorf("counter %q went backwards: %d -> %d", k, prev[k], v)
						return
					}
				}
				prev = cur
			}
		}()
	}
	runOwnedLoad(l, []*jthread.Thread{owner}, reads, writes)
	close(stop)
	snaps.Wait()

	sp := &l.st.stripes[owner.StripeIndex()&l.st.mask]
	if sp.owner.Load() != owner.Serial() {
		t.Fatalf("stripe owner = %d, want the bumping thread's serial %d", sp.owner.Load(), owner.Serial())
	}
	if f := sp.foreign[cElisionSuccesses].Load() + sp.foreign[cFastAcquires].Load(); f != 0 {
		t.Fatalf("the owner's bumps took the foreign path %d times", f)
	}
	checkOwnedTotals(t, l.Stats(), reads, writes)
}

// TestOwnedSlotsTwoVMsShareStripe: each VM numbers its threads (and
// stripe indexes) from its own start, so threads of two VMs can map to the
// same stripe of a shared lock. Serials tell them apart: one owns the
// stripe, the other bumps its foreign slot. (The two threads have distinct
// ids, as threads sharing a lock must.)
func TestOwnedSlotsTwoVMsShareStripe(t *testing.T) {
	const reads, writes = 5000, 500
	vm2 := jthread.NewVM()
	vm2.Attach("idle-1")
	vm2.Attach("idle-2")
	a, b := jthread.NewVM().Attach("a"), vm2.Attach("b")
	if a.StripeIndex()&1 != b.StripeIndex()&1 || a.ID() == b.ID() || a.Serial() == b.Serial() {
		t.Fatalf("stripes %d/%d, ids %d/%d, serials %d/%d: want one stripe, two ids and serials",
			a.StripeIndex(), b.StripeIndex(), a.ID(), b.ID(), a.Serial(), b.Serial())
	}
	l := New(stripedCfg(2))
	// Claim the stripe for a before the race, so b is foreign throughout.
	l.ReadOnly(a, func() {})
	runOwnedLoad(l, []*jthread.Thread{a, b}, reads, writes)

	// a owned the stripe through the read phase (it detaches only after
	// the writes, when b may take the stripe over).
	sp := &l.st.stripes[a.StripeIndex()&l.st.mask]
	if f := sp.foreign[cElisionSuccesses].Load(); f != reads {
		t.Fatalf("foreign successes = %d, want b's %d", f, reads)
	}
	checkOwnedTotals(t, l.Stats(), 2*reads+1, 2*writes)
}

// TestOwnedSlotsMoreThreadsThanStripes: eight threads over two stripes,
// so most bumps are foreign, and owners that finish first detach while
// others still bump, so stripes may change hands.
func TestOwnedSlotsMoreThreadsThanStripes(t *testing.T) {
	const threads, reads, writes = 8, 3000, 300
	vm := jthread.NewVM()
	l := New(stripedCfg(2))
	ths := make([]*jthread.Thread, threads)
	for i := range ths {
		ths[i] = vm.Attach("t")
	}
	runOwnedLoad(l, ths, reads, writes)
	checkOwnedTotals(t, l.Stats(), threads*reads, threads*writes)
}

// TestOwnedSlotTakeoverAfterDetach: a stripe whose owner detached is taken
// over by the next thread that bumps it, which then bumps with plain
// stores; nothing the old owner counted is lost.
func TestOwnedSlotTakeoverAfterDetach(t *testing.T) {
	vm := jthread.NewVM()
	l := New(stripedCfg(1))
	sp := &l.st.stripes[0]
	first, second := vm.Attach("first"), vm.Attach("second")

	l.ReadOnly(first, func() {})
	l.Sync(first, func() {})
	// While first is attached, second is foreign.
	l.ReadOnly(second, func() {})
	if o := sp.owner.Load(); o != first.Serial() {
		t.Fatalf("owner = %d, want first (%d)", o, first.Serial())
	}
	if f := sp.foreign[cElisionSuccesses].Load(); f != 1 {
		t.Fatalf("foreign successes = %d, want 1", f)
	}

	first.Detach()
	if jthread.SerialLive(first.Serial()) {
		t.Fatal("a detached thread's serial is still live")
	}
	// second's first foreign bump after the detach is paced to check (it
	// checked once above, so up to takeoverPace more bumps may pass).
	for i := 0; i <= takeoverPace && sp.owner.Load() != second.Serial(); i++ {
		l.ReadOnly(second, func() {})
	}
	if o := sp.owner.Load(); o != second.Serial() {
		t.Fatalf("owner = %d after first detached, want second (%d)", o, second.Serial())
	}
	foreign := sp.foreign[cElisionSuccesses].Load()
	before := l.Stats().ElisionSuccesses.Load()
	l.ReadOnly(second, func() {})
	l.Sync(second, func() {})
	if f := sp.foreign[cElisionSuccesses].Load(); f != foreign {
		t.Fatalf("the new owner's bump went foreign (%d -> %d)", foreign, f)
	}
	if got := l.Stats().ElisionSuccesses.Load(); got != before+1 {
		t.Fatalf("ElisionSuccesses = %d, want %d", got, before+1)
	}
	if got := l.Stats().FastAcquires.Load(); got != 2 {
		t.Fatalf("FastAcquires = %d, want 2 (one per owner)", got)
	}
}

// TestExternalAddOnOwnedCounter: Counter.Add on a single-writer counter
// lands in a foreign slot, so it neither races with nor clobbers the
// owner's plain stores, even while the owner bumps concurrently.
func TestExternalAddOnOwnedCounter(t *testing.T) {
	const reads, writes, adds = 5000, 500, 1000
	vm := jthread.NewVM()
	l := New(stripedCfg(1))
	owner := vm.Attach("owner")
	l.ReadOnly(owner, func() {}) // owner claims stripe 0
	st := l.Stats()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			st.ElisionSuccesses.Add(1)
			st.FastAcquires.Add(2)
		}
	}()
	runOwnedLoad(l, []*jthread.Thread{owner}, reads, writes)
	wg.Wait()

	sp := &l.st.stripes[0]
	if o := sp.owner.Load(); o != owner.Serial() {
		t.Fatalf("external Add changed the owner to %d", o)
	}
	if got := sp.c[cElisionSuccesses].Load(); got != reads+1 {
		t.Fatalf("owned slot = %d, want the owner's %d alone", got, reads+1)
	}
	checkOwnedTotals(t, st, reads+1+adds, writes+2*adds)
}
