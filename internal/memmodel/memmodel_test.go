package memmodel

import "testing"

func TestFenceStrings(t *testing.T) {
	want := map[Fence]string{
		FenceNone: "none", FenceISync: "isync", FenceLWSync: "lwsync",
		FenceSync: "sync", FenceStoreLoad: "storeload",
	}
	for f, s := range want {
		if f.String() != s {
			t.Fatalf("String(%d) = %q, want %q", f, f.String(), s)
		}
	}
	if Fence(200).String() != "fence(?)" {
		t.Fatalf("unknown fence string wrong")
	}
}

func TestPlansMatchPaperPlacement(t *testing.T) {
	if SoleroPower.ReadEnter != FenceSync {
		t.Fatalf("SOLERO/Power must use sync after the entry load (paper §4.1)")
	}
	if SoleroPower.WriteAcquire != FenceLWSync {
		t.Fatalf("SOLERO/Power must use lwsync after the acquiring CAS (paper §4.1)")
	}
	if ConventionalPower.WriteAcquire != FenceISync {
		t.Fatalf("conventional lock uses isync at entry (paper §4.1)")
	}
	if SoleroWeakBarrier.ReadEnter != FenceISync {
		t.Fatalf("WeakBarrier ablation must use the conventional entry fence")
	}
}

// --- StoreBuffer operational-model tests ---

func TestStoreForwarding(t *testing.T) {
	mem := NewMemory()
	c := mem.NewCore()
	c.Write(1, 42)
	if got := c.Read(1); got != 42 {
		t.Fatalf("core does not see its own buffered store: %d", got)
	}
	other := mem.NewCore()
	if got := other.Read(1); got != 0 {
		t.Fatalf("other core sees undrained store: %d", got)
	}
	c.Fence()
	if got := other.Read(1); got != 42 {
		t.Fatalf("store invisible after fence: %d", got)
	}
}

func TestDrainOrderIsFIFO(t *testing.T) {
	mem := NewMemory()
	c := mem.NewCore()
	c.Write(1, 10)
	c.Write(2, 20)
	c.DrainOne()
	other := mem.NewCore()
	if other.Read(1) != 10 || other.Read(2) != 0 {
		t.Fatalf("drain not FIFO: a=%d b=%d", other.Read(1), other.Read(2))
	}
	if c.PendingStores() != 1 {
		t.Fatalf("pending = %d, want 1", c.PendingStores())
	}
	if c.DrainOne(); c.DrainOne() {
		t.Fatalf("DrainOne on empty buffer returned true")
	}
}

// TestSeqlockTornWithoutWriterFence reproduces the §3.4 hazard: a writer
// that releases its (seq)lock without fencing its data stores lets a reader
// validate successfully while having read torn data. With the fence, the
// torn execution is impossible in this model.
func TestSeqlockTornWithoutWriterFence(t *testing.T) {
	const lockAddr, dataA, dataB = 0, 1, 2

	run := func(writerFences bool) (aSeen, bSeen uint64, validated bool) {
		mem := NewMemory()
		w, r := mem.NewCore(), mem.NewCore()
		// Initial consistent state {A=1, B=1}, lock counter 100, drained.
		w.Write(dataA, 1)
		w.Write(dataB, 1)
		w.Write(lockAddr, 100)
		w.Fence()

		// Writer: acquire (counter+1), update to {A=2, B=2}, release.
		w.Write(lockAddr, 101)
		w.Write(dataA, 2)
		w.Write(dataB, 2)
		if writerFences {
			w.Fence() // lwsync before the releasing store
		}
		w.Write(lockAddr, 102)
		if !writerFences {
			// Weak machine: the release store drains ahead of the
			// data stores (stores to different lines may complete
			// out of order without a fence; model it by draining
			// the lock-release first).
			last := w.pending[len(w.pending)-1]
			mem.cells[last.addr] = last.val
			w.pending = w.pending[:len(w.pending)-1]
		}

		// Reader: elided read-only section.
		v := r.Read(lockAddr)
		aSeen = r.Read(dataA)
		bSeen = r.Read(dataB)
		validated = v&1 == 0 && r.Read(lockAddr) == v
		w.Fence()
		return
	}

	if a, b, ok := run(false); !(ok && (a != 2 || b != 2)) {
		t.Fatalf("weak model did not exhibit torn-yet-validated read: a=%d b=%d ok=%v", a, b, ok)
	}
	if a, b, ok := run(true); ok && (a != 2 || b != 2) {
		t.Fatalf("fenced writer still produced torn validated read: a=%d b=%d", a, b)
	}
}
