package jthread

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// count bumps t's slot k for id the way a lock runtime's owner does.
func count(t *Thread, id uint32, k int) {
	s := t.CounterSlot(id)
	if s == nil {
		s = t.NewCounterSlot(id)
	}
	s[k].Add(1)
}

// TestCounterPageSize: a page is exactly 4 KB, the most a thread's first
// count on a lock may allocate for its slots.
func TestCounterPageSize(t *testing.T) {
	if sz := unsafe.Sizeof(counterPage{}); sz != 4096 {
		t.Fatalf("counter page is %d bytes, want 4096", sz)
	}
	th := NewVM().Attach("t")
	defer th.Detach()
	id := NewCounterID()
	defer FreeCounterID(id)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	count(th, id, 0)
	runtime.ReadMemStats(&m1)
	// The page, plus the lease, the directory and its page index.
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 4096+512 {
		t.Fatalf("a thread's first count allocated %d B, want at most one 4-KB page and its index", b)
	}
}

// TestCounterTotalsAcrossDetach: totals are exact before and after the
// counting threads detach, and a slot never reports another id's counts.
func TestCounterTotalsAcrossDetach(t *testing.T) {
	vm := NewVM()
	id, other := NewCounterID(), NewCounterID()
	defer FreeCounterID(id)
	defer FreeCounterID(other)
	ths := []*Thread{vm.Attach("a"), vm.Attach("b"), vm.Attach("c")}
	for i, th := range ths {
		for j := 0; j <= i; j++ {
			count(th, id, 0)
		}
		count(th, id, 1)
	}
	count(ths[0], other, 0)
	want := [SlotCounters]uint64{1 + 2 + 3, 3}
	if got := CounterTotals(id); got != want {
		t.Fatalf("live totals %v, want %v", got, want)
	}
	for _, th := range ths {
		th.Detach()
		if got := CounterTotals(id); got != want {
			t.Fatalf("totals %v after a detach, want %v", got, want)
		}
	}
	if got := CounterTotals(other); got != [SlotCounters]uint64{1, 0} {
		t.Fatalf("other id's totals %v, want [1 0]", got)
	}
	if s := ths[0].NewCounterSlot(id); s != nil {
		t.Fatal("a detached thread got a counter slot")
	}
}

// TestFreeCounterIDZeroesSlots: a recycled id starts from zero in every
// live and retired slot.
func TestFreeCounterIDZeroesSlots(t *testing.T) {
	vm := NewVM()
	a, b := vm.Attach("a"), vm.Attach("b")
	defer b.Detach()
	id := NewCounterID()
	count(a, id, 0)
	count(b, id, 1)
	a.Detach()
	FreeCounterID(id)
	if got := NewCounterID(); got != id {
		t.Fatalf("free list reissued %d, want the freed %d", got, id)
	}
	defer FreeCounterID(id)
	if got := CounterTotals(id); got != [SlotCounters]uint64{} {
		t.Fatalf("a reissued id starts at %v, want zeros", got)
	}
}

// TestCounterIDSpaceExhausted: past the id limit NewCounterID returns 0,
// the "no id" outcome a lock runtime counts around.
func TestCounterIDSpaceExhausted(t *testing.T) {
	ctrs.mu.Lock()
	limit, free := ctrs.limit, ctrs.free
	ctrs.limit, ctrs.free = ctrs.next+1, nil
	ctrs.mu.Unlock()
	defer func() {
		ctrs.mu.Lock()
		ctrs.limit, ctrs.free = limit, append(ctrs.free, free...)
		ctrs.mu.Unlock()
	}()
	last := NewCounterID()
	if last == 0 {
		t.Fatal("the last id below the limit was refused")
	}
	if id := NewCounterID(); id != 0 {
		t.Fatalf("id %d issued past the limit", id)
	}
	FreeCounterID(last)
	if id := NewCounterID(); id != last {
		t.Fatalf("a freed id was not reissued at the limit: got %d, want %d", id, last)
	}
	FreeCounterID(last)
}

// TestDroppedThreadRetires: a thread dropped without Detach keeps its
// counts in the totals, and the lease finalizer takes its directory out of
// the live set.
func TestDroppedThreadRetires(t *testing.T) {
	id := NewCounterID()
	defer FreeCounterID(id)
	live := func() int {
		ctrs.mu.Lock()
		defer ctrs.mu.Unlock()
		return len(ctrs.live)
	}
	before := live()
	func() {
		th := NewVM().Attach("dropped")
		for i := 0; i < 5; i++ {
			count(th, id, 0)
		}
	}()
	for i := 0; i < 10 && live() > before; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := live(); n > before {
		t.Fatalf("live directories %d after the thread was dropped, want %d", n, before)
	}
	if got := CounterTotals(id); got[0] != 5 {
		t.Fatalf("dropped thread's counts total %d, want 5", got[0])
	}
}

// TestCounterTotalsMonotone: totals read while threads count and detach
// never go backwards, and are exact at the end.
func TestCounterTotalsMonotone(t *testing.T) {
	const threads, n = 4, 5000
	id := NewCounterID()
	defer FreeCounterID(id)
	vm := NewVM()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var prev [SlotCounters]uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := CounterTotals(id)
			if cur[0] < prev[0] {
				t.Errorf("total went backwards: %d -> %d", prev[0], cur[0])
				return
			}
			prev = cur
		}
	}()
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := vm.Attach("w")
			for i := 0; i < n; i++ {
				count(th, id, 0)
			}
			th.Detach()
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	if got := CounterTotals(id)[0]; got != threads*n {
		t.Fatalf("total %d, want %d", got, threads*n)
	}
}
