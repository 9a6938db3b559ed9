package vmlock

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/lockword"
	"repro/internal/montable"
)

func newTableCfg(tb *montable.Table) *Config {
	cfg := *DefaultConfig
	cfg.Monitors = tb
	return &cfg
}

func TestTableModeBasics(t *testing.T) {
	_, ths := newT(t, 1)
	tb := montable.New(montable.Config{Shards: 2})
	l := New(newTableCfg(tb))

	l.Lock(ths[0])
	if !l.HeldBy(ths[0]) {
		t.Fatal("not held after Lock")
	}
	l.Unlock(ths[0])
	if l.Word() != 0 {
		t.Fatalf("word = %#x after release", l.Word())
	}

	// Recursion saturation inflates through the table: the fat word must
	// be a ticket that resolves, and full release must deflate AND reclaim.
	for i := 0; i <= int(lockword.ConvRecMax)+1; i++ {
		l.Lock(ths[0])
	}
	if !l.Inflated() {
		t.Fatalf("word = %#x, want inflated after recursion saturation", l.Word())
	}
	if st := tb.Snapshot(); st.Bound != 1 {
		t.Fatalf("bound = %d, want 1 while inflated", st.Bound)
	}
	for i := 0; i <= int(lockword.ConvRecMax)+1; i++ {
		if !l.HeldBy(ths[0]) {
			t.Fatalf("lost ownership at unwind %d", i)
		}
		l.Unlock(ths[0])
	}
	if l.Inflated() {
		t.Fatalf("word = %#x, still inflated after full release", l.Word())
	}
	if st := tb.Snapshot(); st.Bound != 0 {
		t.Fatalf("bound = %d after full release, want 0 (release reclaim)", st.Bound)
	}
}

func TestTableModeContention(t *testing.T) {
	_, ths := newT(t, 4)
	tb := montable.New(montable.Config{Shards: 2})
	cfg := newTableCfg(tb)
	cfg.Tier1, cfg.Tier2, cfg.Tier3 = 4, 2, 1
	cfg.FLCTimeout = time.Millisecond
	l := New(cfg)

	var shared, sum int
	var wg sync.WaitGroup
	const ops = 3000
	for i := range ths {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			for n := 0; n < ops; n++ {
				l.Lock(ths[idx])
				shared++
				if n%8 == 0 {
					runtime.Gosched()
				}
				l.Unlock(ths[idx])
			}
		}(i)
	}
	wg.Wait()
	sum = len(ths) * ops
	if shared != sum {
		t.Fatalf("shared = %d, want %d (lost updates)", shared, sum)
	}
	if l.st.Inflations.Load() == 0 {
		t.Fatal("contention run never inflated — exercised nothing")
	}
	for i := 0; i < 4; i++ {
		tb.Sweep(0)
	}
	if st := tb.Snapshot(); st.Bound != 0 {
		t.Fatalf("bound = %d after quiescence, want 0", st.Bound)
	}
}

// TestSweeperReclaimsTimedOutWaiterMonitor pins the lucky-release-only
// deflation gap. A classic vmlock whose cond waiters all time out stays
// fat while they are parked — CondReleaseAndPark leaves the inflated word
// with no owner, and nothing ever deflates it until some future release
// gets lucky. In table mode the idle-epoch sweeper closes the gap: the
// word is demoted to flat within one idle epoch even while the abandoned
// waiter is still parked (the entry itself stays bound, because the wait
// set lives on it), and the entry is reclaimed once the waiter drains.
func TestSweeperReclaimsTimedOutWaiterMonitor(t *testing.T) {
	_, ths := newT(t, 1)
	tb := montable.New(montable.Config{Shards: 2, IdleEpochs: 1})
	l := New(newTableCfg(tb))

	const waitFor = 250 * time.Millisecond
	done := make(chan bool, 1)
	l.Lock(ths[0])
	go func() {
		// Abandoned waiter: nobody will ever notify.
		done <- l.WaitTimeout(ths[0], waitFor)
	}()

	// Wait until the waiter has parked: word inflated, monitor unowned.
	deadline := time.Now().Add(5 * time.Second)
	for !l.Inflated() || l.HeldBy(ths[0]) {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked: word=%#x", l.Word())
		}
		time.Sleep(time.Millisecond)
	}

	// One idle epoch: first sweep opens the epoch window, second finds the
	// entry idle and enter-quiescent and demotes the word — while the
	// waiter is still parked.
	tb.Sweep(0)
	tb.Sweep(0)
	if l.Inflated() {
		t.Fatalf("word = %#x still fat after one idle epoch — the deflation gap is back", l.Word())
	}
	if st := tb.Snapshot(); st.Bound != 1 {
		t.Fatalf("bound = %d, want 1 (parked waiter must keep the entry bound)", st.Bound)
	}

	// The waiter times out, reacquires through the flat path, and its
	// caller releases; the sweeper can then reclaim the entry.
	select {
	case notified := <-done:
		if notified {
			t.Fatal("abandoned waiter reported a notification")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed-out waiter never returned")
	}
	l.Unlock(ths[0])
	tb.Sweep(0)
	tb.Sweep(0)
	st := tb.Snapshot()
	if st.Bound != 0 {
		t.Fatalf("bound = %d after the waiter drained, want 0", st.Bound)
	}
	if st.SweepDeflations == 0 {
		t.Fatal("sweeper never demoted the abandoned-waiter word")
	}
}

// TestTableModeWaitNotify exercises the full wait/notify cycle through the
// table: the wait set lives on the bound entry and survives a sweeper
// word-demotion between park and notify.
func TestTableModeWaitNotify(t *testing.T) {
	_, ths := newT(t, 2)
	tb := montable.New(montable.Config{Shards: 2, IdleEpochs: 1})
	l := New(newTableCfg(tb))

	done := make(chan bool, 1)
	l.Lock(ths[0])
	go func() {
		done <- l.WaitTimeout(ths[0], 30*time.Second)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !l.Inflated() || l.HeldBy(ths[0]) {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked: word=%#x", l.Word())
		}
		time.Sleep(time.Millisecond)
	}

	// Demote the word under the parked waiter, then notify through the
	// still-bound entry.
	tb.Sweep(0)
	tb.Sweep(0)
	if l.Inflated() {
		t.Fatalf("word = %#x, sweeper did not demote around the cond waiter", l.Word())
	}
	l.Lock(ths[1])
	l.Notify(ths[1])
	l.Unlock(ths[1])
	select {
	case notified := <-done:
		if !notified {
			t.Fatal("waiter woke by timeout, want notification")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("notified waiter never returned")
	}
	l.Unlock(ths[0])
	for i := 0; i < 4; i++ {
		tb.Sweep(0)
	}
	if st := tb.Snapshot(); st.Bound != 0 {
		t.Fatalf("bound = %d after drain, want 0", st.Bound)
	}
}
