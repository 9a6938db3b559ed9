// Package history is the SOLERO lock's one protocol event log: a
// globally-ordered recorder of what the lock actually did during a run,
// plus a checker that validates the same four safety invariants
// internal/modelcheck proves on the abstract model — mutual exclusion,
// reader soundness, upgrade soundness, and counter monotonicity — against
// the recorded histories.
//
// The same log serves the invariant oracle and the flight recorder. New
// keeps every event, which the oracle needs; NewTail keeps only the most
// recent ones, for runs without end (`lockstats -trace`, `-perfetto` and
// `-serve`'s /trace.json read it through internal/export). Check refuses to
// vouch for a tail that has dropped events.
//
// Two layers feed the recorder. internal/core records protocol
// transitions (acquire/release with the lock words involved, read-only
// success/failure/fallback, read-mostly upgrades, inflate/deflate,
// wait/notify) when a lock's Config.History is non-nil; a nil *Recorder is
// a no-op, so production locks pay one predictable branch. The checking harness
// (internal/schedcheck) records what its critical sections observed:
// section entry/exit brackets and the data pairs its readers and
// upgraders saw. The oracle needs both: protocol events carry the counter
// discipline, harness events carry the ground truth about what the
// sections read.
//
// Event ordering is the recorder's mutex acquisition order, so every
// event's Seq is consistent with real time at its recording instant.
// Sections record entry *after* acquiring and exit *before* releasing, so
// a recorded overlap between two threads' critical sections is always a
// genuine mutual-exclusion violation, never an artifact of recording skew.
package history

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/lockword"
)

// Kind classifies a recorded event.
type Kind uint8

// Event kinds. The first group is recorded by internal/core; the second by
// the checking harness.
const (
	// Acquire: ownership established. Word is the pre-acquire word for a
	// flat acquisition (carrying the counter the owner will advance) or
	// the inflated word for a fat entry.
	Acquire Kind = iota
	// Release: full ownership surrender. Word is the word being published
	// for a flat release, or the inflated word for a fat exit.
	Release
	// ReadSuccess: a speculative read-only section validated. Word is the
	// snapshot it validated against.
	ReadSuccess
	// ReadFailure: a speculative execution of a read section failed to
	// validate (or faulted on an inconsistent snapshot). Word is the
	// snapshot it ran on.
	ReadFailure
	// ReadFallback: a read section ran non-speculatively (fallback,
	// reentrant, or fat entry).
	ReadFallback
	// Upgrade: a read-mostly section upgraded in place. Word is the
	// snapshot the upgrade CAS consumed.
	Upgrade
	// Inflate: the flat lock was promoted to a monitor. Word is the
	// published inflated word.
	Inflate
	// Deflate: a fat release demoted the lock. Word is the republished
	// counter word.
	Deflate
	// Wait: the owner released the lock into the wait set.
	Wait
	// Notify: a notification was delivered.
	Notify

	// EnterCS/ExitCS bracket a harness writing critical section: entry is
	// recorded after the acquire, exit before the release.
	EnterCS
	ExitCS
	// ReadObserved carries the data pair (A, B) a completed read-only
	// section observed. The harness keeps A == B outside critical
	// sections, so A != B is a torn snapshot.
	ReadObserved
	// UpgradeObserved carries A = the value read before an in-place
	// upgrade and B = the value immediately after it succeeded; the
	// upgrade CAS is supposed to prove they are equal.
	UpgradeObserved
	// ViolationEv is an immediately-detected violation (Msg says what).
	ViolationEv

	// MonBind: the compact monitor table bound (or rebound) an entry to a
	// lock. Word is the ticket word the binding publishes; recorded under
	// the shard lock, so binding order matches recording order.
	MonBind
	// MonEnter: a thread resolved an observed ticket word to a live
	// binding (table pin). Word is the resolved ticket word.
	MonEnter
	// MonReclaim: the table unbound an entry and recycled it (generation
	// bumped). Word is the ticket word the binding had published.
	MonReclaim

	numKinds
)

var kindNames = [numKinds]string{
	Acquire: "acquire", Release: "release", ReadSuccess: "read-ok",
	ReadFailure: "read-fail", ReadFallback: "read-fallback", Upgrade: "upgrade",
	Inflate: "inflate", Deflate: "deflate", Wait: "wait", Notify: "notify",
	EnterCS: "enter-cs", ExitCS: "exit-cs", ReadObserved: "read-observed",
	UpgradeObserved: "upgrade-observed", ViolationEv: "violation",
	MonBind: "mon-bind", MonEnter: "mon-enter", MonReclaim: "mon-reclaim",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded operation. Seq counts every event the recorder
// took, dropped ones included; Nano is monotonic nanoseconds since the
// recorder was created (wall-clock time can step backwards).
type Event struct {
	Seq  int
	Nano int64
	TID  uint64
	Kind Kind
	Word uint64
	A, B uint64
	Msg  string
}

// Recorder accumulates events. A nil *Recorder records nothing.
type Recorder struct {
	mu sync.Mutex
	// events is the whole log, or for a tail recorder a ring of the last
	// tail events: event Seq lives at index Seq % tail.
	events []Event
	tail   int // 0: keep everything
	n      int // events recorded, dropped ones included
	start  time.Time
}

// New creates an empty lossless recorder: every event is kept, as the
// invariant checker requires.
func New() *Recorder { return &Recorder{start: time.Now()} }

// NewTail creates an empty recorder that keeps only the last n events
// (at least one), for flight recording over runs without end. Dropped
// reports how many older events it has let go.
func NewTail(n int) *Recorder {
	n = max(n, 1)
	return &Recorder{events: make([]Event, 0, n), tail: n, start: time.Now()}
}

func (r *Recorder) append(e Event) {
	r.mu.Lock()
	e.Seq, e.Nano = r.n, time.Since(r.start).Nanoseconds()
	if len(r.events) == r.tail && r.tail > 0 {
		r.events[r.n%r.tail] = e
	} else {
		r.events = append(r.events, e)
	}
	r.n++
	r.mu.Unlock()
}

// Record logs a protocol event. Nil-safe, and small enough to inline, so an
// unwired log costs its call sites one branch.
func (r *Recorder) Record(k Kind, tid, word uint64) {
	if r == nil {
		return
	}
	r.append(Event{TID: tid, Kind: k, Word: word})
}

// RecordData logs a harness observation carrying a data pair. Nil-safe.
func (r *Recorder) RecordData(k Kind, tid, a, b uint64) {
	if r == nil {
		return
	}
	r.append(Event{TID: tid, Kind: k, A: a, B: b})
}

// RecordViolation logs an immediately-detected violation. Nil-safe.
func (r *Recorder) RecordViolation(tid uint64, msg string) {
	if r == nil {
		return
	}
	r.append(Event{TID: tid, Kind: ViolationEv, Msg: msg})
}

// Len returns the number of events recorded, dropped ones included.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many of the recorded events a tail recorder no
// longer keeps (always 0 for a lossless one).
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n - len(r.events)
}

// Events returns a copy of the kept history in Seq order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == len(r.events) {
		return append([]Event(nil), r.events...)
	}
	i := r.n % r.tail // the oldest kept event
	return append(append(make([]Event, 0, len(r.events)), r.events[i:]...), r.events[:i]...)
}

// Check validates the four safety invariants against the recorded history
// and returns one message per violation (nil when the history is clean).
// A history that has dropped events is reported as truncated and not
// checked: the invariants do not hold of a suffix.
//
//  1. Mutual exclusion: EnterCS/ExitCS intervals of different threads
//     never overlap.
//  2. Reader soundness: every ReadObserved pair is consistent (A == B).
//  3. Upgrade soundness: every UpgradeObserved pair matches (A == B).
//  4. Counter monotonicity: published flat-free counters never decrease
//     across the history, and every flat acquire→release episode
//     advances the counter it captured at acquisition.
//  5. Monitor identity: every MonEnter resolves a ticket word whose
//     binding is live — bound by a MonBind and not yet retired by a
//     MonReclaim. A MonEnter on a dead ticket means a thread entered a
//     reclaimed (or generation-recycled) monitor under a stale ticket.
func (r *Recorder) Check() []string {
	if d := r.Dropped(); d > 0 {
		return []string{fmt.Sprintf("truncated history: %d earlier events were dropped, so the invariants cannot be checked", d)}
	}
	var v []string
	events := r.Events()

	// 1. Mutual exclusion over harness section brackets.
	var holder uint64
	var holderSeq int
	for _, e := range events {
		switch e.Kind {
		case EnterCS:
			if holder != 0 && holder != e.TID {
				v = append(v, fmt.Sprintf(
					"mutual exclusion: t%d entered the critical section at seq %d while t%d held it since seq %d",
					e.TID, e.Seq, holder, holderSeq))
				continue
			}
			holder, holderSeq = e.TID, e.Seq
		case ExitCS:
			if holder == e.TID {
				holder = 0
			}
		}
	}

	// 2 + 3. Observation pairs.
	for _, e := range events {
		switch e.Kind {
		case ReadObserved:
			if e.A != e.B {
				v = append(v, fmt.Sprintf(
					"reader soundness: t%d's read-only section observed a torn pair a=%d b=%d (seq %d)",
					e.TID, e.A, e.B, e.Seq))
			}
		case UpgradeObserved:
			if e.A != e.B {
				v = append(v, fmt.Sprintf(
					"upgrade soundness: t%d upgraded over a stale read (read %d, found %d after upgrade, seq %d)",
					e.TID, e.A, e.B, e.Seq))
			}
		case ViolationEv:
			v = append(v, fmt.Sprintf("t%d: %s (seq %d)", e.TID, e.Msg, e.Seq))
		}
	}

	// 4. Counter monotonicity. Flat free words appear in Release and
	// Deflate events; their counters must be non-decreasing in history
	// order. Each flat acquire captures the counter its episode must
	// advance; an Inflate or Wait hands the episode over to the monitor
	// (the advance is then owed by the eventual deflation).
	lastCounter := uint64(0)
	haveLast := false
	pending := make(map[uint64]uint64) // tid -> counter captured at flat acquire
	for _, e := range events {
		switch e.Kind {
		case Acquire:
			if flatFree(e.Word) {
				pending[e.TID] = lockword.SoleroCounter(e.Word)
			} else {
				delete(pending, e.TID)
			}
		case Inflate, Wait:
			delete(pending, e.TID)
		case Release, Deflate:
			if !flatFree(e.Word) {
				delete(pending, e.TID)
				continue
			}
			c := lockword.SoleroCounter(e.Word)
			if haveLast && c < lastCounter {
				v = append(v, fmt.Sprintf(
					"counter monotonicity: t%d published counter %d after %d had been published (seq %d)",
					e.TID, c, lastCounter, e.Seq))
			}
			lastCounter, haveLast = c, true
			if acq, ok := pending[e.TID]; ok && e.Kind == Release {
				if c == acq {
					v = append(v, fmt.Sprintf(
						"counter monotonicity: t%d's writing episode released counter %d unchanged — a release must advance the counter (seq %d)",
						e.TID, c, e.Seq))
				}
				delete(pending, e.TID)
			}
		}
	}

	// 5. Monitor identity over compact-table bindings. The table records
	// MonBind/MonEnter/MonReclaim under the shard lock, so the recorded
	// order is the binding order and a set suffices: a ticket word is live
	// between its MonBind and the matching MonReclaim.
	live := make(map[uint64]bool) // ticket word -> bound
	for _, e := range events {
		switch e.Kind {
		case MonBind:
			if live[e.Word] {
				v = append(v, fmt.Sprintf(
					"monitor identity: ticket word %s bound twice without an intervening reclaim (t%d, seq %d)",
					lockword.String(e.Word), e.TID, e.Seq))
			}
			live[e.Word] = true
		case MonEnter:
			if !live[e.Word] {
				v = append(v, fmt.Sprintf(
					"monitor identity: t%d entered a reclaimed/recycled monitor under stale ticket word %s (seq %d)",
					e.TID, lockword.String(e.Word), e.Seq))
			}
		case MonReclaim:
			if !live[e.Word] {
				v = append(v, fmt.Sprintf(
					"monitor identity: t%d reclaimed ticket word %s that was never bound (seq %d)",
					e.TID, lockword.String(e.Word), e.Seq))
			}
			delete(live, e.Word)
		}
	}
	return v
}

// flatFree reports whether w is a flat word with the lock bit clear (the
// shape whose high field is the sequence counter).
func flatFree(w uint64) bool {
	return !lockword.Inflated(w) && w&lockword.LockBit == 0
}

// Summary returns per-kind event counts, for reports.
func (r *Recorder) Summary() map[string]int {
	out := make(map[string]int)
	for _, e := range r.Events() {
		out[e.Kind.String()]++
	}
	return out
}

// Format renders the tail of the history (up to max events; 0 renders all
// kept) for failure reports and `lockstats -trace`, after a line counting
// the events a tail recorder has dropped.
func (r *Recorder) Format(max int) string {
	events := r.Events()
	if len(events) > max && max > 0 {
		events = events[len(events)-max:]
	}
	if len(events) == 0 {
		return "(no events)\n"
	}
	var b []byte
	if d := r.Dropped(); d > 0 {
		b = fmt.Appendf(b, "(%d earlier events dropped)\n", d)
	}
	for _, e := range events {
		switch e.Kind {
		case ReadObserved, UpgradeObserved:
			b = append(b, fmt.Sprintf("%5d t%-3d %-16s a=%d b=%d\n", e.Seq, e.TID, e.Kind, e.A, e.B)...)
		case ViolationEv:
			b = append(b, fmt.Sprintf("%5d t%-3d %-16s %s\n", e.Seq, e.TID, e.Kind, e.Msg)...)
		default:
			b = append(b, fmt.Sprintf("%5d t%-3d %-16s word=%s\n", e.Seq, e.TID, e.Kind, lockword.String(e.Word))...)
		}
	}
	return string(b)
}
