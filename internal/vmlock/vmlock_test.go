package vmlock

import (
	"sync"
	"testing"
	"time"

	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/monitor"
)

func newT(t *testing.T, n int) (*jthread.VM, []*jthread.Thread) {
	t.Helper()
	vm := jthread.NewVM()
	ths := make([]*jthread.Thread, n)
	for i := range ths {
		ths[i] = vm.Attach("t")
	}
	return vm, ths
}

func TestLockUnlockBasic(t *testing.T) {
	_, ths := newT(t, 1)
	l := New(nil)
	l.Lock(ths[0])
	if !l.HeldBy(ths[0]) {
		t.Fatalf("not held after Lock")
	}
	l.Unlock(ths[0])
	if l.HeldBy(ths[0]) || l.Word() != 0 {
		t.Fatalf("not free after Unlock: word=%#x", l.Word())
	}
	if l.Stats().FastAcquires.Load() != 1 {
		t.Fatalf("fast path not taken")
	}
}

func TestReentrancy(t *testing.T) {
	_, ths := newT(t, 1)
	l := New(nil)
	const depth = 10
	for i := 0; i < depth; i++ {
		l.Lock(ths[0])
	}
	if got := lockword.ConvRec(l.Word()); got != depth-1 {
		t.Fatalf("recursion bits = %d, want %d", got, depth-1)
	}
	for i := 0; i < depth; i++ {
		if !l.HeldBy(ths[0]) {
			t.Fatalf("lost ownership at unwind %d", i)
		}
		l.Unlock(ths[0])
	}
	if l.Word() != 0 {
		t.Fatalf("word = %#x after full release", l.Word())
	}
}

func TestRecursionSaturationInflates(t *testing.T) {
	_, ths := newT(t, 1)
	l := New(nil)
	n := int(lockword.ConvRecMax) + 5
	for i := 0; i <= n; i++ {
		l.Lock(ths[0])
	}
	if !l.Inflated() {
		t.Fatalf("lock did not inflate at recursion saturation")
	}
	for i := 0; i <= n; i++ {
		if !l.HeldBy(ths[0]) {
			t.Fatalf("ownership lost at depth %d during unwind", i)
		}
		l.Unlock(ths[0])
	}
	if l.HeldBy(ths[0]) {
		t.Fatalf("still held after full unwind")
	}
	if l.Stats().Inflations.Load() == 0 {
		t.Fatalf("inflation not counted")
	}
}

func TestDeflationAfterContention(t *testing.T) {
	vm, ths := newT(t, 2)
	_ = vm
	l := New(nil)
	// Force inflation: hold in one goroutine long enough for the other to
	// exhaust its spin tiers.
	held := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		l.Lock(ths[0])
		close(held)
		<-release
		l.Unlock(ths[0])
		close(done)
	}()
	<-held
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	l.Lock(ths[1])
	<-done
	if !l.Inflated() {
		t.Fatalf("lock did not inflate under contention")
	}
	l.Unlock(ths[1])
	// Final release with no waiters should deflate.
	if l.Inflated() {
		t.Fatalf("lock did not deflate after contention subsided: %#x", l.Word())
	}
	if l.Word() != 0 {
		t.Fatalf("deflated word = %#x, want 0", l.Word())
	}
	// Lock must still be usable in flat mode.
	l.Lock(ths[0])
	l.Unlock(ths[0])
	if l.Stats().Deflations.Load() == 0 {
		t.Fatalf("deflation not counted")
	}
}

func TestDeflationDisabled(t *testing.T) {
	cfg := *DefaultConfig
	cfg.Deflate = false
	_, ths := newT(t, 2)
	l := New(&cfg)
	held := make(chan struct{})
	go func() {
		l.Lock(ths[0])
		close(held)
		time.Sleep(30 * time.Millisecond)
		l.Unlock(ths[0])
	}()
	<-held
	l.Lock(ths[1])
	l.Unlock(ths[1])
	if !l.Inflated() {
		t.Fatalf("lock deflated with deflation disabled")
	}
}

func TestMutualExclusionStress(t *testing.T) {
	const goroutines = 8
	const perThread = 3000
	vm := jthread.NewVM()
	l := New(nil)
	var shared int
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := vm.Attach("worker")
			defer th.Detach()
			for i := 0; i < perThread; i++ {
				l.Lock(th)
				shared++
				l.Unlock(th)
			}
		}()
	}
	wg.Wait()
	if shared != goroutines*perThread {
		t.Fatalf("lost updates: %d, want %d", shared, goroutines*perThread)
	}
}

func TestMutualExclusionWithRecursionStress(t *testing.T) {
	const goroutines = 6
	const perThread = 1000
	vm := jthread.NewVM()
	l := New(nil)
	var shared int
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(depth int) {
			defer wg.Done()
			th := vm.Attach("worker")
			defer th.Detach()
			for i := 0; i < perThread; i++ {
				for d := 0; d <= depth; d++ {
					l.Lock(th)
				}
				shared++
				for d := 0; d <= depth; d++ {
					l.Unlock(th)
				}
			}
		}(g % 3)
	}
	wg.Wait()
	if shared != goroutines*perThread {
		t.Fatalf("lost updates: %d, want %d", shared, goroutines*perThread)
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	_, ths := newT(t, 2)
	l := New(nil)
	l.Lock(ths[0])
	defer l.Unlock(ths[0])
	defer func() {
		if recover() == nil {
			t.Fatalf("Unlock by non-owner did not panic")
		}
	}()
	l.Unlock(ths[1])
}

func TestUnlockFreePanics(t *testing.T) {
	_, ths := newT(t, 1)
	l := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("Unlock of free lock did not panic")
		}
	}()
	l.Unlock(ths[0])
}

func TestSyncHelper(t *testing.T) {
	_, ths := newT(t, 1)
	l := New(nil)
	ran := false
	l.Sync(ths[0], func() {
		ran = true
		if !l.HeldBy(ths[0]) {
			t.Errorf("not held inside Sync")
		}
	})
	if !ran || l.HeldBy(ths[0]) {
		t.Fatalf("Sync did not run or did not release")
	}
}

func TestSyncReleasesOnPanic(t *testing.T) {
	_, ths := newT(t, 1)
	l := New(nil)
	func() {
		defer func() { recover() }()
		l.Sync(ths[0], func() { panic("boom") })
	}()
	if l.HeldBy(ths[0]) {
		t.Fatalf("lock leaked by panicking Sync")
	}
}

func TestInflatedMutualExclusionStress(t *testing.T) {
	// Pre-inflate by saturating recursion, then hammer it fat.
	vm := jthread.NewVM()
	cfg := *DefaultConfig
	cfg.Deflate = false
	l := New(&cfg)
	owner := vm.Attach("owner")
	for i := 0; i <= int(lockword.ConvRecMax)+1; i++ {
		l.Lock(owner)
	}
	for i := 0; i <= int(lockword.ConvRecMax)+1; i++ {
		l.Unlock(owner)
	}
	if !l.Inflated() {
		t.Fatalf("setup failed to inflate")
	}
	var shared int
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := vm.Attach("w")
			defer th.Detach()
			for i := 0; i < 2000; i++ {
				l.Lock(th)
				shared++
				l.Unlock(th)
			}
		}()
	}
	wg.Wait()
	if shared != 6*2000 {
		t.Fatalf("lost updates in fat mode: %d", shared)
	}
}

// TestStrayFLCOnInflatedWord pins the fat-mode livelock fix: a contender's
// FLC Or can land on a word that was inflated after its load. fatEnter
// must still recognise the word as this monitor's, so both contenders get
// through and the last release deflates.
func TestStrayFLCOnInflatedWord(t *testing.T) {
	_, ths := newT(t, 3)
	l := New(nil)
	l.Lock(ths[0])
	l.inflateAsOwner(ths[0], l.word.Load(), 0)
	l.word.Or(lockword.FLCBit)

	var wg sync.WaitGroup
	for _, th := range ths[1:] {
		wg.Add(1)
		go func(th *jthread.Thread) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Lock(th)
				l.Unlock(th)
			}
		}(th)
	}
	// Release only once both contenders queue on the monitor, so the
	// release cannot deflate the stray bit away. A table monitor is
	// recycled across bindings, so count from its current total.
	m := boundMonitor(l)
	queued := m.StatsSnapshot().ContendedEnters
	for deadline := time.Now().Add(5 * time.Second); m.StatsSnapshot().ContendedEnters < queued+2; {
		if time.Now().After(deadline) {
			t.Fatalf("contenders never queued on the monitor")
		}
		time.Sleep(time.Millisecond)
	}
	l.Unlock(ths[0])

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("contenders livelocked on word %#x", l.Word())
	}
	if w := l.Word(); w != 0 {
		t.Fatalf("lock did not deflate to the free word: %#x", w)
	}
}

// boundMonitor returns the monitor of l's live table binding, or nil while
// l has none.
func boundMonitor(l *Lock) *monitor.Monitor {
	h, ok := l.table().FindBound(&l.word, 0)
	if !ok {
		return nil
	}
	h.Unpin()
	return h.Mon
}
