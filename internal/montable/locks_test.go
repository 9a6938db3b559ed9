package montable_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/montable"
	"repro/internal/vmlock"
)

// lock is what the churn, property and footprint drivers need of a lock.
// Both locks that rent their fat mode from a table, vmlock.Lock and
// core.Lock, satisfy it, so the drivers certify the protocol that ships.
type lock interface {
	Lock(*jthread.Thread)
	Unlock(*jthread.Thread)
	Inflated() bool
}

// lockKind names one shipping lock. maker returns a constructor for locks
// of that kind whose fat mode rents from tb; the config is built once, so a
// population of locks shares it as production code does. The contention
// tiers are short so a few threads inflate on a few cores.
type lockKind struct {
	name  string
	maker func(tb *montable.Table) func() lock
}

var lockKinds = []lockKind{
	{"vmlock", func(tb *montable.Table) func() lock {
		cfg := *vmlock.DefaultConfig
		cfg.Tier1, cfg.Tier2, cfg.Tier3 = 8, 4, 2
		cfg.Monitors = tb
		return func() lock { return vmlock.New(&cfg) }
	}},
	{"core", func(tb *montable.Table) func() lock {
		cfg := *core.DefaultConfig
		cfg.Tier1, cfg.Tier2, cfg.Tier3 = 8, 4, 2
		cfg.Monitors = tb
		return func() lock { return core.New(&cfg) }
	}},
}

// forEachLock runs fn as one subtest per shipping lock.
func forEachLock(t *testing.T, fn func(t *testing.T, k lockKind)) {
	for _, k := range lockKinds {
		t.Run(k.name, func(t *testing.T) { fn(t, k) })
	}
}

// attach returns n threads of a fresh VM.
func attach(n int) []*jthread.Thread {
	vm := jthread.NewVM()
	ths := make([]*jthread.Thread, n)
	for i := range ths {
		ths[i] = vm.Attach("t")
	}
	return ths
}

// newVMLock returns a default-configured vmlock.Lock renting from tb.
func newVMLock(tb *montable.Table) *vmlock.Lock {
	cfg := *vmlock.DefaultConfig
	cfg.Monitors = tb
	return vmlock.New(&cfg)
}

// inflations counts the bindings a table made: every inflation of a
// shipping lock binds an entry, fresh or recycled.
func inflations(st montable.Stats) uint64 { return st.Binds + st.Rebinds }

// deflationChurn counts the fat episodes a table saw end: words the
// sweeper demoted plus entries reclaimed by a deflating release.
func deflationChurn(st montable.Stats) uint64 { return st.SweepDeflations + st.ReleaseReclaims }

// TestLostWaiterBugIsDetected builds the lost-waiter window by hand on a
// vmlock.Lock: thread A holds the inflated lock, thread B is queued inside
// the monitor's Enter (holding its pin), and the table sweeps once. The
// correct sweeper skips the pinned entry and B gets the lock when A lets
// go. The seeded BugLostWaiter sweeper force-resets the monitor and
// republishes a flat word under both of them, so A's release panics as a
// non-owner or B never gets through. No random churn: the window is
// constructed, not hoped for.
func TestLostWaiterBugIsDetected(t *testing.T) {
	for _, bug := range []montable.Bug{montable.BugNone, montable.BugLostWaiter} {
		name := "correct"
		if bug == montable.BugLostWaiter {
			name = "lost-waiter"
		}
		t.Run(name, func(t *testing.T) {
			tb := montable.New(montable.Config{Shards: 1, Bug: bug})
			l := newVMLock(tb)
			ths := attach(2)
			a, b := ths[0], ths[1]

			// A inflates the lock by saturating its flat recursion count.
			depth := int(lockword.ConvRecMax) + 2
			for i := 0; i < depth; i++ {
				l.Lock(a)
			}
			if !l.Inflated() {
				t.Fatalf("word = %#x, want inflated after recursion saturation", l.Word())
			}
			h, ok := tb.PinWord(l.Word(), 99)
			if !ok {
				t.Fatal("the inflated word's ticket did not resolve")
			}
			m := h.Mon
			h.Unpin()
			queued := m.StatsSnapshot().ContendedEnters

			bDone := make(chan struct{})
			go func() {
				l.Lock(b)
				l.Unlock(b)
				close(bDone)
			}()
			for deadline := time.Now().Add(10 * time.Second); m.StatsSnapshot().ContendedEnters == queued; {
				if time.Now().After(deadline) {
					t.Fatal("B never queued on the inflated lock's monitor")
				}
				time.Sleep(100 * time.Microsecond)
			}

			tb.Sweep(0)
			st := tb.Snapshot()

			var releasePanic any
			func() {
				defer func() { releasePanic = recover() }()
				for i := 0; i < depth; i++ {
					l.Unlock(a)
				}
			}()
			bCompleted := false
			select {
			case <-bDone:
				bCompleted = true
			case <-time.After(5 * time.Second):
			}

			if bug == montable.BugLostWaiter {
				if releasePanic == nil && bCompleted {
					t.Fatalf("seeded lost-waiter sweep escaped detection: A released cleanly and B completed (lostWaiterBugs=%d)", st.LostWaiterBugs)
				}
				t.Logf("bug detected as designed: A's release panic=%v, B completed=%v", releasePanic, bCompleted)
				return
			}
			if st.SweepSkipPinned != 1 || st.SweepReclaims != 0 {
				t.Fatalf("sweep with B queued: skipPinned=%d reclaims=%d, want 1 and 0", st.SweepSkipPinned, st.SweepReclaims)
			}
			if releasePanic != nil {
				t.Fatalf("A's release panicked under the correct sweeper: %v", releasePanic)
			}
			if !bCompleted {
				t.Fatal("B never got the lock after A's release")
			}
			if l.Inflated() || tb.Snapshot().Bound != 0 {
				t.Fatalf("after B's release: word=%#x bound=%d, want flat and 0", l.Word(), tb.Snapshot().Bound)
			}
		})
	}
}

// TestBackgroundSweeper checks Start/Stop and that the background sweeper
// reclaims an idle fat word without explicit Sweep calls.
func TestBackgroundSweeper(t *testing.T) {
	tb := montable.New(montable.Config{IdleEpochs: 1, SweepInterval: time.Millisecond})

	// A word left fat with no owner: hand it a binding directly.
	var word atomic.Uint64
	h := tb.Bind(&word, 1)
	word.Store(h.Word)
	h.Unpin()

	tb.Start()
	defer tb.Stop()
	for deadline := time.Now().Add(2 * time.Second); lockword.Inflated(word.Load()) || tb.Snapshot().Bound != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("background sweeper never reclaimed: word=%#x bound=%d", word.Load(), tb.Snapshot().Bound)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Idempotent lifecycle; a lock renting from the restarted table works.
	tb.Stop()
	tb.Start()
	tb.Start()
	l := newVMLock(tb)
	th := attach(1)[0]
	l.Lock(th)
	l.Unlock(th)
}
