package history

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lockword"
)

func free(c uint64) uint64 { return lockword.SoleroFreeWord(c) }

// TestNilRecorder pins the production configuration: a nil recorder must
// accept every call and report an empty, clean history.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(Acquire, 1, 0)
	r.RecordData(ReadObserved, 1, 1, 2)
	r.RecordViolation(1, "x")
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder recorded something")
	}
}

// TestCleanHistory drives a well-formed run through the checker.
func TestCleanHistory(t *testing.T) {
	r := New()
	// t1 writes (counter 0 -> 1), t2 reads consistently, t1 writes again.
	r.Record(Acquire, 1, free(0))
	r.RecordData(EnterCS, 1, 0, 0)
	r.RecordData(ExitCS, 1, 0, 0)
	r.Record(Release, 1, free(1))
	r.RecordData(ReadObserved, 2, 7, 7)
	r.Record(ReadSuccess, 2, free(1))
	r.Record(Acquire, 1, free(1))
	r.RecordData(EnterCS, 1, 0, 0)
	r.RecordData(ExitCS, 1, 0, 0)
	r.Record(Release, 1, free(2))
	if v := r.Check(); v != nil {
		t.Fatalf("clean history flagged: %v", v)
	}
	if n := r.Summary()["acquire"]; n != 2 {
		t.Fatalf("summary acquire = %d, want 2", n)
	}
}

// TestMutualExclusionViolation overlaps two sections.
func TestMutualExclusionViolation(t *testing.T) {
	r := New()
	r.RecordData(EnterCS, 1, 0, 0)
	r.RecordData(EnterCS, 2, 0, 0)
	r.RecordData(ExitCS, 2, 0, 0)
	r.RecordData(ExitCS, 1, 0, 0)
	v := r.Check()
	if len(v) != 1 || !strings.Contains(v[0], "mutual exclusion") {
		t.Fatalf("want one mutual-exclusion violation, got %v", v)
	}
}

// TestTornRead flags an inconsistent observed pair.
func TestTornRead(t *testing.T) {
	r := New()
	r.RecordData(ReadObserved, 3, 5, 6)
	v := r.Check()
	if len(v) != 1 || !strings.Contains(v[0], "reader soundness") {
		t.Fatalf("want one reader-soundness violation, got %v", v)
	}
}

// TestStaleUpgrade flags a mismatched upgrade pair.
func TestStaleUpgrade(t *testing.T) {
	r := New()
	r.RecordData(UpgradeObserved, 4, 5, 9)
	v := r.Check()
	if len(v) != 1 || !strings.Contains(v[0], "upgrade soundness") {
		t.Fatalf("want one upgrade-soundness violation, got %v", v)
	}
}

// TestCounterNotAdvanced is the oracle view of the injected
// no-counter-bump bug: an episode that republishes the counter it
// acquired must be flagged even though the word is well-formed.
func TestCounterNotAdvanced(t *testing.T) {
	r := New()
	r.Record(Acquire, 1, free(3))
	r.Record(Release, 1, free(3)) // should have been free(4)
	v := r.Check()
	if len(v) != 1 || !strings.Contains(v[0], "must advance") {
		t.Fatalf("want one stuck-counter violation, got %v", v)
	}
}

// TestCounterRegression flags a counter that moves backwards.
func TestCounterRegression(t *testing.T) {
	r := New()
	r.Record(Acquire, 1, free(5))
	r.Record(Release, 1, free(6))
	r.Record(Acquire, 2, free(6))
	r.Record(Release, 2, free(2))
	v := r.Check()
	found := false
	for _, m := range v {
		if strings.Contains(m, "after 6 had been published") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a counter-regression violation, got %v", v)
	}
}

// TestInflationCancelsPairing: an episode that inflates owes its advance
// to the deflation, so no stuck-counter report for the acquirer.
func TestInflationCancelsPairing(t *testing.T) {
	r := New()
	r.Record(Acquire, 1, free(2))
	r.Record(Inflate, 1, lockword.InflatedWord(9))
	r.Record(Release, 1, lockword.InflatedWord(9)) // fat exit, no counter word
	r.Record(Deflate, 1, free(3))                  // monitor republishes advanced counter
	if v := r.Check(); v != nil {
		t.Fatalf("inflated episode flagged: %v", v)
	}
}

// TestViolationEventPropagates: immediate violations surface in Check.
func TestViolationEventPropagates(t *testing.T) {
	r := New()
	r.RecordViolation(2, "cs oracle: overlap")
	v := r.Check()
	if len(v) != 1 || !strings.Contains(v[0], "cs oracle") {
		t.Fatalf("want the recorded violation, got %v", v)
	}
}

// TestFormatTail bounds and renders the report tail.
func TestFormatTail(t *testing.T) {
	r := New()
	for i := uint64(0); i < 10; i++ {
		r.Record(Acquire, 1, free(i))
	}
	out := r.Format(3)
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("Format(3) rendered %q", out)
	}
	if !strings.Contains(out, "acquire") {
		t.Fatalf("Format missing kind name: %q", out)
	}
}

// TestMonitorIdentityClean drives a full bind→enter→reclaim→rebind cycle:
// the recycled binding at the next generation is a fresh ticket word, so
// entering it is sound.
func TestMonitorIdentityClean(t *testing.T) {
	r := New()
	w5 := lockword.TicketWord(1, 7, 5)
	w6 := lockword.TicketWord(1, 7, 6)
	r.Record(MonBind, 1, w5)
	r.Record(MonEnter, 2, w5)
	r.Record(MonReclaim, 1, w5)
	r.Record(MonBind, 3, w6)
	r.Record(MonEnter, 3, w6)
	r.Record(MonReclaim, 3, w6)
	if v := r.Check(); v != nil {
		t.Fatalf("clean monitor-identity history flagged: %v", v)
	}
}

// TestMonitorIdentityStaleTicket pins check #5's core case: a thread that
// resolves a ticket after its binding was reclaimed entered a recycled
// monitor.
func TestMonitorIdentityStaleTicket(t *testing.T) {
	r := New()
	w := lockword.TicketWord(0, 3, 1)
	r.Record(MonBind, 1, w)
	r.Record(MonReclaim, 1, w)
	r.Record(MonEnter, 2, w) // stale: the gen-1 binding is gone
	v := r.Check()
	if len(v) != 1 || !strings.Contains(v[0], "reclaimed/recycled monitor under stale ticket") {
		t.Fatalf("want one stale-ticket violation, got %v", v)
	}
}

// TestMonitorIdentityDoubleBind flags a table that bound the same ticket
// word twice — a generation that failed to advance at reclaim.
func TestMonitorIdentityDoubleBind(t *testing.T) {
	r := New()
	w := lockword.TicketWord(2, 9, 4)
	r.Record(MonBind, 1, w)
	r.Record(MonBind, 2, w)
	v := r.Check()
	if len(v) != 1 || !strings.Contains(v[0], "bound twice") {
		t.Fatalf("want one double-bind violation, got %v", v)
	}
}

// TestMonitorIdentityUnboundReclaim flags reclaiming a binding that never
// existed.
func TestMonitorIdentityUnboundReclaim(t *testing.T) {
	r := New()
	r.Record(MonReclaim, 1, lockword.TicketWord(0, 0, 1))
	v := r.Check()
	if len(v) != 1 || !strings.Contains(v[0], "never bound") {
		t.Fatalf("want one unbound-reclaim violation, got %v", v)
	}
}

// TestKindStrings: every kind has a name (the flight recorder's event
// names), and an unknown kind still renders.
func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if ReadFailure.String() != "read-fail" || Kind(200).String() != "kind(200)" {
		t.Fatalf("names: %q %q", ReadFailure, Kind(200))
	}
}

// TestNilTailIsNoOp: an unwired flight recorder is a nil *Recorder, and
// the tail-only accessors are no-ops on it too.
func TestNilTailIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(ReadFailure, 1, 2) // must not panic
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil || r.Format(0) != "(no events)\n" {
		t.Fatalf("nil tail recorded something: len %d dropped %d format %q", r.Len(), r.Dropped(), r.Format(0))
	}
}

// TestTailRecordAndEventsOrder: before its first wrap a tail recorder is
// indistinguishable from a lossless one — every event kept, in Seq order.
func TestTailRecordAndEventsOrder(t *testing.T) {
	r := NewTail(64)
	for i := uint64(0); i < 10; i++ {
		r.Record(Release, i, free(i))
	}
	events := r.Events()
	if r.Len() != 10 || len(events) != 10 || r.Dropped() != 0 {
		t.Fatalf("Len %d, kept %d, dropped %d; want 10, 10, 0", r.Len(), len(events), r.Dropped())
	}
	for i, e := range events {
		if e.Seq != i || e.TID != uint64(i) || e.Word != free(uint64(i)) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
}

// TestTailKeepsMostRecent: a tail recorder keeps exactly the last n
// events, oldest first, however many times it has wrapped.
func TestTailKeepsMostRecent(t *testing.T) {
	const n = 5
	r := NewTail(n)
	for total := 1; total <= 4*n+3; total++ {
		r.Record(Release, uint64(total), free(uint64(total)))
		events := r.Events()
		if want := min(total, n); len(events) != want {
			t.Fatalf("after %d events: kept %d, want %d", total, len(events), want)
		}
		first := total - len(events)
		for i, e := range events {
			if e.Seq != first+i || e.TID != uint64(first+i+1) {
				t.Fatalf("after %d events: event %d is seq %d tid %d, want seq %d", total, i, e.Seq, e.TID, first+i)
			}
		}
	}
}

// TestTailDroppedCount: Dropped and Len count exactly — nothing while the
// tail fills, nothing when it is exactly full, one per event after that.
func TestTailDroppedCount(t *testing.T) {
	const n = 16
	r := NewTail(n)
	if r.Dropped() != 0 {
		t.Fatalf("fresh tail dropped %d", r.Dropped())
	}
	for total := 1; total <= 100; total++ {
		r.Record(Release, 1, 0)
		if want := max(total-n, 0); r.Dropped() != want || r.Len() != total {
			t.Fatalf("after %d events: Dropped %d Len %d, want %d %d", total, r.Dropped(), r.Len(), want, total)
		}
	}
	if out := r.Format(0); !strings.HasPrefix(out, "(84 earlier events dropped)\n") {
		t.Fatalf("Format missing dropped summary:\n%s", out)
	}
}

// TestTailSizeFloor: a non-positive size keeps one event, not none.
func TestTailSizeFloor(t *testing.T) {
	for _, n := range []int{0, -3} {
		r := NewTail(n)
		r.Record(Acquire, 1, 0)
		r.Record(Release, 1, 0)
		if e := r.Events(); len(e) != 1 || e[0].Kind != Release || r.Dropped() != 1 {
			t.Fatalf("NewTail(%d) kept %v, dropped %d", n, e, r.Dropped())
		}
	}
}

// TestTailCheckReportsTruncation: a tail that has dropped events cannot be
// checked — the counter pairing and monitor identity need the whole run —
// so Check reports the truncation instead of passing vacuously. A tail that
// has not wrapped is checked like a lossless log.
func TestTailCheckReportsTruncation(t *testing.T) {
	r := NewTail(4)
	r.Record(Acquire, 1, free(0))
	r.Record(Release, 1, free(1))
	if v := r.Check(); v != nil {
		t.Fatalf("unwrapped tail flagged: %v", v)
	}
	for i := uint64(1); i < 4; i++ {
		r.Record(Acquire, 1, free(i))
		r.Record(Release, 1, free(i+1))
	}
	v := r.Check()
	if len(v) != 1 || !strings.Contains(v[0], "truncated history: 4 earlier events") {
		t.Fatalf("want one truncation violation, got %v", v)
	}
	if out := r.Format(0); !strings.HasPrefix(out, "(4 earlier events dropped)\n") || strings.Count(out, "\n") != 5 {
		t.Fatalf("Format of a wrapped tail:\n%s", out)
	}
}

// TestConcurrentRecording: concurrent writers lose nothing in a lossless
// log, and Seq is dense.
func TestConcurrentRecording(t *testing.T) {
	r := New()
	const writers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(ReadSuccess, tid, uint64(i))
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	events := r.Events()
	if len(events) != writers*per || r.Dropped() != 0 {
		t.Fatalf("kept %d events, dropped %d; want %d, 0", len(events), r.Dropped(), writers*per)
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

// TestTimestampsMonotonic: Nano never runs backwards in Seq order, also
// across concurrent writers and a wrapped tail, and it is a small offset
// from the recorder's creation, not a wall-clock epoch.
func TestTimestampsMonotonic(t *testing.T) {
	for _, r := range []*Recorder{New(), NewTail(64)} {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(tid uint64) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					r.Record(ReadSuccess, tid, uint64(i))
				}
			}(uint64(w + 1))
		}
		wg.Wait()
		events := r.Events()
		for i := 1; i < len(events); i++ {
			if events[i].Nano < events[i-1].Nano {
				t.Fatalf("event %d: Nano ran backwards (%d < %d)", i, events[i].Nano, events[i-1].Nano)
			}
		}
		if events[0].Nano < 0 || events[0].Nano > int64(time.Hour) {
			t.Fatalf("Nano is not recorder-relative: %d", events[0].Nano)
		}
	}
}
