package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/montable"
)

// TestOwnerRecordEveryFlatArm runs each arm that takes or releases a lock
// flat — or inflates it as its owner — and checks the owner-record
// discipline: while the thread holds the lock flat it has a record for it,
// afterwards it has none, and the published word is the free word the
// acquire displaced (the record's saved word) advanced by one counter unit.
// Each lock rents from a private table without a sweeper, so nothing but
// the arm moves the word.
func TestOwnerRecordEveryFlatArm(t *testing.T) {
	arms := []struct {
		name string
		// run drives the arm on l; it calls probe at a point where th
		// holds l flat at depth zero, before the release or inflation
		// the arm is about.
		run func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func())
	}{
		{"lock-unlock", func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func()) {
			l.Lock(th)
			probe()
			l.Unlock(th)
		}},
		{"spin-acquire", func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func()) {
			if !l.spinAcquire(th) {
				t.Fatal("spinAcquire failed on a free lock")
			}
			probe()
			l.Unlock(th)
		}},
		{"flc-release", func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func()) {
			l.Lock(th)
			probe()
			l.word.Or(lockword.FLCBit) // a contender announced itself
			l.Unlock(th)               // slowExit's FLC arm
		}},
		{"read-fallback", func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func()) {
			runs := 0
			l.ReadOnly(th, func() {
				if runs++; runs == 1 {
					l.Lock(other) // fail the speculation
					l.Unlock(other)
					return
				}
				probe() // readFallback → Lock, runHeld → Unlock
			})
		}},
		{"read-exit", func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func()) {
			l.Lock(th)
			probe()
			if !l.slowReadExit(th, 0) {
				t.Fatal("slowReadExit did not release a flat hold")
			}
		}},
		{"read-mostly-upgrade", func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func()) {
			l.ReadMostly(th, func(s *Section) {
				s.BeforeWrite()
				if !s.Upgraded() {
					t.Fatal("BeforeWrite on an uncontended lock did not upgrade in place")
				}
				probe()
			})
		}},
		{"wait", func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func()) {
			l.Lock(th)
			probe()
			l.WaitTimeout(th, time.Millisecond) // inflateAsOwner
			if d := th.OwnerDepth(); d != 0 {
				t.Fatalf("OwnerDepth = %d while holding the inflated lock, want 0", d)
			}
			l.Unlock(th)
		}},
		{"recursion-overflow", func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func()) {
			n := int(lockword.SoleroRecMax) + 2
			for i := 0; i < n; i++ {
				l.Lock(th)
				if i == 0 {
					probe()
				}
			}
			if !l.Inflated() {
				t.Fatal("recursion overflow did not inflate")
			}
			for i := 0; i < n; i++ {
				l.Unlock(th)
			}
		}},
		{"read-recursion-overflow", func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func()) {
			n := int(lockword.SoleroRecMax) + 1
			for i := 0; i < n; i++ {
				l.Lock(th)
				if i == 0 {
					probe()
				}
			}
			l.ReadOnly(th, func() {
				if !l.Inflated() {
					t.Fatal("a read at the recursion limit did not inflate")
				}
			})
			for i := 0; i < n; i++ {
				l.Unlock(th)
			}
		}},
		{"panic-in-sync", func(t *testing.T, l *Lock, th, other *jthread.Thread, probe func()) {
			defer func() {
				if r := recover(); r != "sync body" {
					t.Fatalf("recovered %v, want the body's panic", r)
				}
			}()
			l.Sync(th, func() {
				probe()
				panic("sync body")
			})
		}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			ths := newT(t, 2)
			th, other := ths[0], ths[1]
			l := New(newTableCfg(montable.New(montable.Config{Shards: 1})))
			l.Lock(other) // start from a nonzero counter
			l.Unlock(other)
			var saved uint64
			probes := 0
			arm.run(t, l, th, other, func() {
				probes++
				var ok bool
				if saved, ok = th.OwnerSaved(&l.word); !ok {
					t.Fatalf("no owner record while holding: word %#x", l.Word())
				}
				if d := th.OwnerDepth(); d != 1 {
					t.Fatalf("OwnerDepth = %d while holding one lock, want 1", d)
				}
				if !lockword.SoleroFree(saved) {
					t.Fatalf("saved word %#x is not free", saved)
				}
			})
			if probes != 1 {
				t.Fatalf("probe ran %d times, want 1", probes)
			}
			if d := th.OwnerDepth(); d != 0 {
				t.Fatalf("OwnerDepth = %d after the arm, want 0", d)
			}
			if d := other.OwnerDepth(); d != 0 {
				t.Fatalf("the other thread's OwnerDepth = %d, want 0", d)
			}
			if w, want := l.Word(), lockword.SoleroNextFree(saved); w != want {
				t.Fatalf("word = %#x after the arm, want %#x: saved %#x plus one", w, want, saved)
			}
		})
	}
}

// TestOwnerRecordsNestPastInline holds more locks at once than the inline
// records, and releases them out of acquisition order: each release
// publishes its own lock's saved word plus one, whichever record is on top.
func TestOwnerRecordsNestPastInline(t *testing.T) {
	th := newT(t, 1)[0]
	const n = 7
	locks := make([]*Lock, n)
	before := make([]uint64, n)
	for round := 0; round < 2; round++ {
		for i := range locks {
			if round == 0 {
				locks[i] = New(nil)
			}
			before[i] = locks[i].Word()
			locks[i].Lock(th)
		}
		if d := th.OwnerDepth(); d != n {
			t.Fatalf("round %d: OwnerDepth = %d holding %d locks", round, d, n)
		}
		for k, i := range []int{2, 0, 6, 5, 1, 4, 3} {
			locks[i].Unlock(th)
			if w, want := locks[i].Word(), lockword.SoleroNextFree(before[i]); w != want {
				t.Fatalf("round %d: lock %d released at %#x, want %#x", round, i, w, want)
			}
			if d := th.OwnerDepth(); d != n-k-1 {
				t.Fatalf("round %d: OwnerDepth = %d after %d releases", round, d, k+1)
			}
		}
	}
}

// TestOwnerRecordsNonLIFO pins the plain out-of-order pair: Lock A, Lock B,
// Unlock A, Unlock B.
func TestOwnerRecordsNonLIFO(t *testing.T) {
	th := newT(t, 1)[0]
	a, b := New(nil), New(nil)
	a.Lock(th)
	a.Unlock(th) // a's counter differs from b's
	wa, wb := a.Word(), b.Word()
	a.Lock(th)
	b.Lock(th)
	a.Unlock(th)
	if w, want := a.Word(), lockword.SoleroNextFree(wa); w != want {
		t.Fatalf("A released at %#x, want %#x", w, want)
	}
	if !b.HeldBy(th) {
		t.Fatal("releasing A released B")
	}
	b.Unlock(th)
	if w, want := b.Word(), lockword.SoleroNextFree(wb); w != want {
		t.Fatalf("B released at %#x, want %#x", w, want)
	}
	if d := th.OwnerDepth(); d != 0 {
		t.Fatalf("OwnerDepth = %d after both releases", d)
	}
}

// TestDetachWhileHoldingFlat reaches the defined outcome of detaching a
// thread mid-section: Detach refuses with jthread.ErrDetachHolding, the
// thread stays attached and still owns the lock, and once it releases the
// lock it detaches normally.
func TestDetachWhileHoldingFlat(t *testing.T) {
	vm := jthread.NewVM()
	th := vm.Attach("holder")
	l := New(nil)
	before := l.Word()
	l.Lock(th)
	func() {
		defer func() {
			if r := recover(); r == nil || !errors.Is(r.(error), jthread.ErrDetachHolding) {
				t.Fatalf("Detach while holding recovered %v, want ErrDetachHolding", r)
			}
		}()
		th.Detach()
	}()
	if vm.NumThreads() != 1 || !l.HeldBy(th) {
		t.Fatalf("after the refused Detach: %d threads attached, held %v; want 1, true", vm.NumThreads(), l.HeldBy(th))
	}
	l.Unlock(th)
	if w, want := l.Word(), lockword.SoleroNextFree(before); w != want {
		t.Fatalf("word = %#x after the release, want %#x", w, want)
	}
	th.Detach()
	if vm.NumThreads() != 0 {
		t.Fatalf("%d threads attached after Detach, want 0", vm.NumThreads())
	}
}
