package jthread

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/stats"
)

func TestAttachAssignsUniqueIDs(t *testing.T) {
	vm := NewVM()
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		th := vm.Attach("t")
		if th.ID() == 0 {
			t.Fatalf("thread id 0 assigned (0 is the unheld sentinel)")
		}
		if seen[th.ID()] {
			t.Fatalf("duplicate thread id %d", th.ID())
		}
		seen[th.ID()] = true
	}
	if got := vm.NumThreads(); got != 100 {
		t.Fatalf("NumThreads = %d, want 100", got)
	}
}

func TestDetachRemoves(t *testing.T) {
	vm := NewVM()
	a := vm.Attach("a")
	vm.Attach("b")
	a.Detach()
	a.Detach() // idempotent
	if got := vm.NumThreads(); got != 1 {
		t.Fatalf("NumThreads after detach = %d, want 1", got)
	}
}

func TestCheckpointNoEventNoPanic(t *testing.T) {
	vm := NewVM()
	th := vm.Attach("t")
	var w atomic.Uint64
	th.PushSpec(&w, 0)
	w.Store(99) // stale, but no event pending
	th.Checkpoint()
	th.PopSpec()
}

func TestCheckpointValidatesOnEvent(t *testing.T) {
	vm := NewVM()
	th := vm.Attach("t")
	var w atomic.Uint64
	w.Store(5)
	th.PushSpec(&w, 5)
	th.Poke()
	th.Checkpoint() // consistent: must not panic
	if th.EventsSeen() != 1 {
		t.Fatalf("EventsSeen = %d, want 1", th.EventsSeen())
	}

	w.Store(6)
	th.Poke()
	defer func() {
		r := recover()
		ire, ok := r.(*InconsistentReadError)
		if !ok {
			t.Fatalf("recover = %v, want *InconsistentReadError", r)
		}
		if ire.Word != &w {
			t.Fatalf("stale word pointer wrong")
		}
	}()
	th.Checkpoint()
	t.Fatalf("Checkpoint did not panic on stale frame")
}

func TestCheckpointForcedValidation(t *testing.T) {
	vm := NewVM()
	th := vm.Attach("t")
	th.SetForceValidateEvery(3)
	var w atomic.Uint64
	th.PushSpec(&w, 0)
	w.Store(1)
	panicked := false
	func() {
		defer func() {
			if _, ok := recover().(*InconsistentReadError); ok {
				panicked = true
			}
		}()
		for i := 0; i < 3; i++ {
			th.Checkpoint()
		}
	}()
	if !panicked {
		t.Fatalf("forced validation did not abort stale speculation")
	}
}

func TestNestedFramesInnermostFirst(t *testing.T) {
	vm := NewVM()
	th := vm.Attach("t")
	var outer, inner atomic.Uint64
	th.PushSpec(&outer, 0)
	th.PushSpec(&inner, 0)
	if th.SpecDepth() != 2 {
		t.Fatalf("SpecDepth = %d, want 2", th.SpecDepth())
	}
	inner.Store(1)
	outer.Store(1)
	th.Poke()
	defer func() {
		ire, ok := recover().(*InconsistentReadError)
		if !ok {
			t.Fatalf("expected *InconsistentReadError")
		}
		if ire.Word != &inner {
			t.Fatalf("validation must abort on the innermost stale frame first")
		}
	}()
	th.Checkpoint()
}

func TestPopSpecUnderflowPanics(t *testing.T) {
	vm := NewVM()
	th := vm.Attach("t")
	defer func() {
		if recover() == nil {
			t.Fatalf("PopSpec underflow did not panic")
		}
	}()
	th.PopSpec()
}

func TestAsyncEventSourceDelivers(t *testing.T) {
	vm := NewVM()
	th := vm.Attach("t")
	vm.StartAsyncEvents(time.Millisecond)
	defer vm.StopAsyncEvents()
	deadline := time.Now().Add(2 * time.Second)
	for !th.asyncPending.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("no async event delivered within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStartAsyncEventsIdempotentAndStops(t *testing.T) {
	vm := NewVM()
	vm.StartAsyncEvents(time.Millisecond)
	vm.StartAsyncEvents(time.Millisecond) // no-op, no panic
	vm.StopAsyncEvents()
	vm.StopAsyncEvents() // idempotent
}

func TestPokeAllConcurrentWithAttach(t *testing.T) {
	vm := NewVM()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				vm.PokeAll()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		th := vm.Attach("t")
		th.Checkpoint()
		th.Detach()
	}
	close(stop)
	wg.Wait()
}

func TestStripeIndexRoundRobin(t *testing.T) {
	vm := NewVM()
	first := vm.Attach("a")
	if first.StripeIndex() != 0 {
		t.Fatalf("first thread stripe = %d, want 0", first.StripeIndex())
	}
	prev := first
	for i := 0; i < 16; i++ {
		th := vm.Attach("b")
		if th.StripeIndex() != prev.StripeIndex()+1 {
			t.Fatalf("stripes not consecutive: %d then %d", prev.StripeIndex(), th.StripeIndex())
		}
		// Any power-of-two mask sees a round-robin spread.
		if th.StripeIndex() != uint32(th.ID()-1) {
			t.Fatalf("stripe %d not precomputed from id %d", th.StripeIndex(), th.ID())
		}
		prev = th
	}
}

func TestSampleTickSelectsEveryPeriod(t *testing.T) {
	vm := NewVM()
	th := vm.Attach("sampler")
	// Mask 7 = period 8: exactly one in eight calls selected, at a fixed
	// phase (ticks 8, 16, ...).
	sampled := 0
	for i := 0; i < 64; i++ {
		if th.SampleTick(7) {
			sampled++
		}
	}
	if sampled != 8 {
		t.Fatalf("sampled %d of 64 with mask 7", sampled)
	}
	// Mask 0 = period 1: every call selected.
	for i := 0; i < 10; i++ {
		if !th.SampleTick(0) {
			t.Fatalf("mask 0 skipped a tick")
		}
	}
}

// TestFrameStacksOnDisjointLines: every speculative section writes its
// thread's frame stack, so two threads attached back to back must get
// stacks on disjoint false-sharing ranges, each covering a whole range.
func TestFrameStacksOnDisjointLines(t *testing.T) {
	const r = stats.FalseSharingRange
	vm := NewVM()
	a, b := vm.Attach("a"), vm.Attach("b")
	var word atomic.Uint64
	span := func(th *Thread) (lo, hi uintptr) {
		th.PushSpec(&word, 0) // what a thread's first section does
		th.PopSpec()
		base := uintptr(unsafe.Pointer(unsafe.SliceData(th.frames)))
		end := base + uintptr(cap(th.frames))*unsafe.Sizeof(SpecFrame{})
		if end-base < r {
			t.Fatalf("frame stack covers %d bytes, want at least %d", end-base, r)
		}
		return base &^ (r - 1), (end + r - 1) &^ (r - 1)
	}
	aLo, aHi := span(a)
	bLo, bHi := span(b)
	if aLo < bHi && bLo < aHi {
		t.Fatalf("frame stacks share a %d-byte range: [%#x,%#x) and [%#x,%#x)", r, aLo, aHi, bLo, bHi)
	}
}

// TestSerialsUniqueAcrossVMs: ids restart at 1 in every VM, serials never
// repeat in the process — not across VMs, and not after a Detach — and
// are never zero.
func TestSerialsUniqueAcrossVMs(t *testing.T) {
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for v := 0; v < 4; v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vm := NewVM()
			for i := 0; i < 50; i++ {
				th := vm.Attach("t")
				if i%2 == 0 {
					th.Detach()
				}
				mu.Lock()
				if th.Serial() == 0 || seen[th.Serial()] {
					t.Errorf("serial %d is zero or reused", th.Serial())
				}
				seen[th.Serial()] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestOwnerRecords drives the owner-record stack past its inline entries:
// pushes, LIFO takes through the inline fast case, out-of-order takes
// through TakeOwner, and the panic of a take with no record.
func TestOwnerRecords(t *testing.T) {
	th := NewVM().Attach("owner")
	words := make([]atomic.Uint64, ownerInline+3)
	for i := range words {
		th.PushOwner(&words[i], uint64(100+i))
	}
	if d := th.OwnerDepth(); d != len(words) {
		t.Fatalf("OwnerDepth = %d after %d pushes", d, len(words))
	}
	if _, ok := th.TakeOwnerTop(&words[len(words)-1]); ok {
		t.Fatal("TakeOwnerTop took a spilled record")
	}
	// Take from the middle, then the spilled top, then the rest LIFO.
	for _, i := range []int{2, 6, 5, 0, 4} {
		if got := th.TakeOwner(&words[i]); got != uint64(100+i) {
			t.Fatalf("TakeOwner(word %d) = %d, want %d", i, got, 100+i)
		}
		if _, ok := th.OwnerSaved(&words[i]); ok {
			t.Fatalf("word %d still has a record after its take", i)
		}
	}
	for _, i := range []int{3, 1} {
		got, ok := th.TakeOwnerTop(&words[i])
		if !ok || got != uint64(100+i) {
			t.Fatalf("TakeOwnerTop(word %d) = %d, %v; want %d, true", i, got, ok, 100+i)
		}
	}
	if d := th.OwnerDepth(); d != 0 {
		t.Fatalf("OwnerDepth = %d after taking every record", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TakeOwner with no record did not panic")
		}
	}()
	th.TakeOwner(&words[0])
}

// TestDetachRefusedWhileOwning checks Detach's defined outcome for a thread
// with a live owner record: it panics with ErrDetachHolding and leaves the
// thread attached with its record, and succeeds once the record is taken.
func TestDetachRefusedWhileOwning(t *testing.T) {
	vm := NewVM()
	th := vm.Attach("owner")
	var w atomic.Uint64
	th.PushOwner(&w, 7)
	func() {
		defer func() {
			if r := recover(); r != ErrDetachHolding {
				t.Fatalf("Detach recovered %v, want ErrDetachHolding", r)
			}
		}()
		th.Detach()
	}()
	if vm.NumThreads() != 1 || th.OwnerDepth() != 1 {
		t.Fatalf("refused Detach left %d threads, depth %d; want 1, 1", vm.NumThreads(), th.OwnerDepth())
	}
	if got := th.TakeOwner(&w); got != 7 {
		t.Fatalf("TakeOwner = %d, want 7", got)
	}
	th.Detach()
	if vm.NumThreads() != 0 {
		t.Fatalf("%d threads after Detach", vm.NumThreads())
	}
}

// TestThreadHotLine pins the Thread layout the fast paths rely on: the id,
// the owner-record count, the speculative-frame stack header and the first
// owner record lie in the struct's first 64 bytes, so the write path (id,
// first record) and the read path (frame header) touch the same few words
// of it.
func TestThreadHotLine(t *testing.T) {
	var th Thread
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"id", unsafe.Offsetof(th.id), unsafe.Sizeof(th.id)},
		{"owners", unsafe.Offsetof(th.owners), unsafe.Sizeof(th.owners)},
		{"frames", unsafe.Offsetof(th.frames), unsafe.Sizeof(th.frames)},
		{"owner[0]", unsafe.Offsetof(th.owner), unsafe.Sizeof(th.owner[0])},
	} {
		if f.off+f.size > stats.CacheLine {
			t.Errorf("%s spans [%d,%d), want within the first %d bytes", f.name, f.off, f.off+f.size, stats.CacheLine)
		}
	}
}
