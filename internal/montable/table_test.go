package montable

import (
	"sync/atomic"
	"testing"

	"repro/internal/history"
	"repro/internal/lockword"
)

// TestBindPinReclaimLifecycle walks one entry through its full life:
// bind, resolve by ticket, release-reclaim, and the generation bump that
// defeats stale tickets.
func TestBindPinReclaimLifecycle(t *testing.T) {
	tb := New(Config{Shards: 2})
	var word atomic.Uint64

	h := tb.Bind(&word, 1)
	if h.Mon == nil || !lockword.Inflated(h.Word) {
		t.Fatalf("bind returned no monitor / non-inflated word %#x", h.Word)
	}
	word.Store(h.Word)

	// A second thread resolves the published ticket.
	h2, ok := tb.PinWord(word.Load(), 2)
	if !ok || h2.Mon != h.Mon || h2.Word != h.Word {
		t.Fatalf("PinWord failed to resolve a live ticket")
	}
	h2.Unpin()
	if held, ok := tb.HeldBy(word.Load(), 2); !ok || held {
		t.Fatalf("HeldBy on a live unowned ticket = (%v, %v), want (false, true)", held, ok)
	}

	// Binding again from the same lock word finds the same entry.
	h3 := tb.Bind(&word, 3)
	if h3.Mon != h.Mon || h3.Word != h.Word {
		t.Fatal("rebinding a bound lock produced a different entry")
	}
	h3.Unpin()

	if st := tb.Snapshot(); st.Bound != 1 {
		t.Fatalf("bound = %d, want 1", st.Bound)
	}

	// Deflate the word and drop the last pin: the entry reclaims.
	word.Store(0)
	h.UnpinReclaim(1)
	st := tb.Snapshot()
	if st.Bound != 0 || st.ReleaseReclaims != 1 || st.FreeListLen != 1 {
		t.Fatalf("after reclaim: bound=%d releaseReclaims=%d free=%d", st.Bound, st.ReleaseReclaims, st.FreeListLen)
	}

	// The old ticket is now stale.
	if _, ok := tb.PinWord(h.Word, 2); ok {
		t.Fatal("PinWord resolved a reclaimed ticket")
	}
	if tb.Snapshot().StalePins == 0 {
		t.Fatal("stale pin not counted")
	}
	if _, ok := tb.HeldBy(h.Word, 2); ok {
		t.Fatal("HeldBy resolved a reclaimed ticket")
	}

	// The next binding recycles the slot at a new generation.
	h4 := tb.Bind(&word, 1)
	if lockword.TicketIndex(lockword.MonitorID(h4.Word)) != lockword.TicketIndex(lockword.MonitorID(h.Word)) {
		t.Fatal("free-list slot not recycled")
	}
	if h4.Word == h.Word {
		t.Fatal("recycled binding kept the old generation")
	}
	if _, ok := tb.PinWord(h.Word, 2); ok {
		t.Fatal("old-generation ticket resolved against the recycled binding (ABA)")
	}
	if tb.Snapshot().Rebinds != 1 {
		t.Fatal("rebind not counted")
	}
	h4.UnpinReclaim(1)

	// The ticket's shard field is lockword.TicketShardBits wide: New clamps
	// a larger shard request to 256 shards, and every shard index, the top
	// bit included, round-trips through PinWord.
	wide := New(Config{Shards: 1000})
	if got := wide.Snapshot().Shards; got != 1<<lockword.TicketShardBits {
		t.Fatalf("Shards: 1000 gave %d shards, want %d", got, 1<<lockword.TicketShardBits)
	}
	var words [64]atomic.Uint64
	var top uint32
	for i := range words {
		h := wide.Bind(&words[i], 1)
		words[i].Store(h.Word)
		top = max(top, lockword.TicketShard(lockword.MonitorID(h.Word)))
		h2, ok := wide.PinWord(words[i].Load(), 2)
		if !ok || h2.Mon != h.Mon {
			t.Fatalf("binding %d (%#x) did not round-trip on the clamped table", i, h.Word)
		}
		h2.Unpin()
		h.Unpin()
	}
	if top < 128 {
		t.Fatalf("64 bindings all landed below shard 128 (top %d): the high shard bit went untested", top)
	}
}

// TestUnpinReclaimGuards pins the three conditions that must each block
// on-release reclamation: other pins, a non-quiescent monitor, and an
// inflated word.
func TestUnpinReclaimGuards(t *testing.T) {
	tb := New(Config{})
	var word atomic.Uint64

	// Other pins.
	h := tb.Bind(&word, 1)
	h2 := tb.Bind(&word, 2)
	h.UnpinReclaim(1)
	if tb.Snapshot().Bound != 1 {
		t.Fatal("reclaimed a pinned entry")
	}

	// Monitor owned.
	h2.Mon.Enter(7)
	h2.UnpinReclaim(2)
	if tb.Snapshot().Bound != 1 {
		t.Fatal("reclaimed an owned monitor")
	}
	h2.Mon.Exit(7)

	// Inflated word.
	h3 := tb.Bind(&word, 1)
	word.Store(h3.Word)
	h3.UnpinReclaim(1)
	if tb.Snapshot().Bound != 1 {
		t.Fatal("reclaimed an entry whose word is still inflated")
	}

	// All guards clear: reclaim happens.
	word.Store(0)
	h4 := tb.Bind(&word, 1)
	h4.UnpinReclaim(1)
	if tb.Snapshot().Bound != 0 {
		t.Fatal("reclaim did not happen with all guards clear")
	}
}

// TestSweepDeflatesAndReclaims drives the sweeper's two levels: word
// deflation for an idle inflated lock, then entry reclamation.
func TestSweepDeflatesAndReclaims(t *testing.T) {
	tb := New(Config{IdleEpochs: 1})
	var word atomic.Uint64
	h := tb.Bind(&word, 1)
	h.Mon.SavedCounter = 0 // deflated word
	word.Store(h.Word)
	h.Unpin()

	// First sweep: entry was used this epoch — skipped as fresh.
	tb.Sweep(9)
	if !lockword.Inflated(word.Load()) {
		t.Fatal("sweeper deflated a fresh entry")
	}
	if tb.Snapshot().SweepSkipFresh == 0 {
		t.Fatal("fresh skip not counted")
	}

	// Second sweep: idle now — word deflates AND the entry reclaims in
	// the same pass (monitor fully quiescent).
	tb.Sweep(9)
	st := tb.Snapshot()
	if lockword.Inflated(word.Load()) {
		t.Fatal("sweeper did not deflate an idle quiescent lock")
	}
	if st.SweepDeflations != 1 || st.SweepReclaims != 1 || st.Bound != 0 {
		t.Fatalf("sweep: deflations=%d reclaims=%d bound=%d", st.SweepDeflations, st.SweepReclaims, st.Bound)
	}
}

// TestSweepSkipsPinnedAndBusy asserts the sweeper's safety guards.
func TestSweepSkipsPinnedAndBusy(t *testing.T) {
	tb := New(Config{IdleEpochs: 1})
	var w1, w2 atomic.Uint64

	hPinned := tb.Bind(&w1, 1) // pin held across the sweeps
	w1.Store(hPinned.Word)

	hBusy := tb.Bind(&w2, 2)
	w2.Store(hBusy.Word)
	hBusy.Mon.Enter(5) // owned → not quiescent
	hBusy.Unpin()

	tb.Sweep(9)
	tb.Sweep(9)
	st := tb.Snapshot()
	if st.Bound != 2 || st.SweepReclaims != 0 {
		t.Fatalf("sweeper reclaimed a pinned or busy entry: bound=%d", st.Bound)
	}
	if st.SweepSkipPinned == 0 || st.SweepSkipBusy == 0 {
		t.Fatalf("skip counters: pinned=%d busy=%d", st.SweepSkipPinned, st.SweepSkipBusy)
	}
	if lockword.Inflated(w1.Load()) == false {
		t.Fatal("pinned entry's word was deflated")
	}

	hBusy.Mon.Exit(5)
	w1.Store(0)
	hPinned.UnpinReclaim(1)
	tb.Sweep(9)
	tb.Sweep(9)
	if st := tb.Snapshot(); st.Bound != 0 {
		t.Fatalf("entries not reclaimed once unblocked: bound=%d", st.Bound)
	}
}

// TestSweepRestoresSavedCounter pins the SOLERO-critical property: the
// sweeper's word deflation republishes the counter stashed at inflation,
// not zero, so pre-inflation reader snapshots stay invalidated.
func TestSweepRestoresSavedCounter(t *testing.T) {
	tb := New(Config{IdleEpochs: 1})
	var word atomic.Uint64
	h := tb.Bind(&word, 1)
	restored := lockword.SoleroFreeWord(41)
	h.Mon.RawLock()
	h.Mon.SavedCounter = restored
	h.Mon.RawUnlock()
	word.Store(h.Word)
	h.Unpin()

	tb.Sweep(9)
	tb.Sweep(9)
	if got := word.Load(); got != restored {
		t.Fatalf("sweeper restored %#x, want SavedCounter %#x", got, restored)
	}
}

// TestSweepDemotesStaleFLCTicket: a contender's FLC Or can land on a word
// inflated after its load, leaving the ticket word with the FLC bit set.
// Once the entry is unpinned that bit is stale (a contender keeps its pin
// while it parks), so an idle sweep still demotes the word and reclaims
// the entry; otherwise a lock whose releases never deflate stays fat, its
// monitor bound, for good.
func TestSweepDemotesStaleFLCTicket(t *testing.T) {
	tb := New(Config{IdleEpochs: 1})
	var word atomic.Uint64
	h := tb.Bind(&word, 1)
	restored := lockword.SoleroFreeWord(7)
	h.Mon.RawLock()
	h.Mon.SavedCounter = restored
	h.Mon.RawUnlock()
	word.Store(h.Word | lockword.FLCBit)
	h.Unpin()

	tb.Sweep(9)
	tb.Sweep(9)
	if got := word.Load(); got != restored {
		t.Fatalf("sweeper left %s, want the saved counter %s", lockword.String(got), lockword.String(restored))
	}
	if st := tb.Snapshot(); st.SweepDeflations != 1 || st.SweepReclaims != 1 || st.Bound != 0 {
		t.Fatalf("sweep: deflations=%d reclaims=%d bound=%d", st.SweepDeflations, st.SweepReclaims, st.Bound)
	}
}

// TestHistoryRecordsIdentity runs a bind/pin/reclaim/rebind cycle with a
// recorder attached and hands the history to the monitor-identity oracle.
func TestHistoryRecordsIdentity(t *testing.T) {
	rec := history.New()
	tb := New(Config{History: rec})
	var word atomic.Uint64

	h := tb.Bind(&word, 1)
	word.Store(h.Word)
	h2, _ := tb.PinWord(word.Load(), 2)
	h2.Unpin()
	word.Store(0)
	h.UnpinReclaim(1)
	h3 := tb.Bind(&word, 3)
	word.Store(h3.Word)
	word.Store(0)
	h3.UnpinReclaim(3)

	if v := rec.Check(); v != nil {
		t.Fatalf("oracle flagged a clean table history: %v", v)
	}
	sum := rec.Summary()
	if sum["mon-bind"] != 2 || sum["mon-reclaim"] != 2 || sum["mon-enter"] != 1 {
		t.Fatalf("history summary: %v", sum)
	}
}

// TestProbeTableChurn binds, reclaims and rebinds enough locks in one
// shard to grow its binding map and recycle half its arena slots.
func TestProbeTableChurn(t *testing.T) {
	tb := New(Config{Shards: 1, ShardCapacity: 4})
	const n = 300
	words := make([]atomic.Uint64, n)
	handles := make([]Handle, n)
	for i := range words {
		handles[i] = tb.Bind(&words[i], 1)
		words[i].Store(handles[i].Word)
	}
	if st := tb.Snapshot(); st.Bound != n {
		t.Fatalf("bound = %d, want %d", st.Bound, n)
	}
	// Every binding resolvable.
	for i := range words {
		h, ok := tb.PinWord(words[i].Load(), 2)
		if !ok || h.Mon != handles[i].Mon {
			t.Fatalf("binding %d not resolvable after churn", i)
		}
		h.Unpin()
	}
	// Release the odd half, then rebind new locks into the recycled slots.
	for i := 1; i < n; i += 2 {
		words[i].Store(0)
		handles[i].UnpinReclaim(1)
	}
	if st := tb.Snapshot(); st.Bound != n/2 || st.FreeListLen != n/2 {
		t.Fatalf("after half release: bound=%d free=%d", st.Bound, st.FreeListLen)
	}
	var fresh [n / 2]atomic.Uint64
	for i := range fresh {
		h := tb.Bind(&fresh[i], 1)
		fresh[i].Store(h.Word)
		defer h.Unpin()
	}
	st := tb.Snapshot()
	if st.Bound != n || st.Capacity != n {
		t.Fatalf("recycling grew the arena: bound=%d capacity=%d", st.Bound, st.Capacity)
	}
	// The even half is still resolvable (growth and deletes must not lose
	// keys).
	for i := 0; i < n; i += 2 {
		h, ok := tb.PinWord(words[i].Load(), 2)
		if !ok || h.Mon != handles[i].Mon {
			t.Fatalf("binding %d lost across growth/recycle", i)
		}
		h.Unpin()
	}
}
