package jthread

// Owner records. A writing critical section keeps the lock word it
// displaced — the paper's "local lock variable" (Figure 6) — so that its
// release can publish that word advanced by one counter unit. The lock has
// no byte for it: the owning thread keeps it, as a record {lock-word
// address, saved word} pushed at every flat acquire and taken at the
// matching flat release (or when the owner inflates the lock, which stashes
// the advanced counter in the monitor instead).
//
// The first ownerInline records live inline in the Thread, beside its id,
// which the write path loads anyway; deeper nesting spills to a slice the
// thread keeps. A record names its lock by address, as a uintptr, so a push
// stores no pointer and pays no write barrier. The address keeps nothing
// alive: a held lock is reachable from the code that holds it, and the
// stack is searched from the top, so a record left by a lock dropped while
// held (a bug in the caller) can only shadow, never be mistaken for, a
// later lock's record at the same address.
//
// Releases are usually LIFO, and the fast cases, PushOwner and
// TakeOwnerTop, touch only the inline top and inline into the write path; a
// release out of order (Lock A, Lock B, Unlock A) or past the inline
// entries goes to TakeOwner, which searches the stack from the top and
// closes the gap.

import (
	"sync/atomic"
	"unsafe"
)

// ownerInline is the number of owner records kept inline in a Thread.
const ownerInline = 4

// ownerRecord is one flat hold: the held lock word's address and the word
// the acquire displaced.
type ownerRecord struct {
	word  uintptr
	saved uint64
}

// wordKey is the address a record names its lock word by.
func wordKey(word *atomic.Uint64) uintptr { return uintptr(unsafe.Pointer(word)) }

// PushOwner records that t now holds word flat, having displaced saved (the
// free word its acquiring CAS replaced). Call it at every flat acquire.
func (t *Thread) PushOwner(word *atomic.Uint64, saved uint64) {
	if n := t.owners; n < ownerInline {
		t.owner[n] = ownerRecord{wordKey(word), saved}
		t.owners = n + 1
		return
	}
	t.pushOwnerSpill(word, saved)
}

// pushOwnerSpill pushes a record past the inline entries.
func (t *Thread) pushOwnerSpill(word *atomic.Uint64, saved uint64) {
	t.ownerSpill = append(t.ownerSpill, ownerRecord{wordKey(word), saved})
	t.owners++
}

// TakeOwnerTop is TakeOwner's fast case, kept under the inliner's budget:
// when t's top record is inline and names word, it removes it and returns
// the word it saved. Otherwise it reports false and changes nothing, and
// the caller calls TakeOwner.
func (t *Thread) TakeOwnerTop(word *atomic.Uint64) (uint64, bool) {
	if n := t.owners - 1; n < ownerInline && t.owner[n].word == wordKey(word) {
		t.owners = n
		return t.owner[n].saved, true
	}
	return 0, false
}

// TakeOwner removes t's topmost record for word and returns the word it
// saved. Call it at every flat release and when the owner inflates the
// lock. It panics if t holds no record for word: every flat hold pushes
// one, so a missing record is a release by a thread that never acquired.
func (t *Thread) TakeOwner(word *atomic.Uint64) uint64 {
	if saved, ok := t.TakeOwnerTop(word); ok {
		return saved
	}
	i := t.findOwner(word)
	if i < 0 {
		panic("jthread: TakeOwner with no owner record for the lock word")
	}
	// Out of LIFO order, or spilled: close the gap.
	saved := t.ownerAt(i).saved
	for ; i+1 < int(t.owners); i++ {
		*t.ownerAt(i) = *t.ownerAt(i + 1)
	}
	t.owners--
	if t.owners >= ownerInline {
		t.ownerSpill = t.ownerSpill[:t.owners-ownerInline]
	}
	return saved
}

// findOwner returns the index of t's topmost record for word, or -1.
func (t *Thread) findOwner(word *atomic.Uint64) int {
	key := wordKey(word)
	for i := int(t.owners) - 1; i >= 0; i-- {
		if t.ownerAt(i).word == key {
			return i
		}
	}
	return -1
}

// ownerAt returns record i, counted from the bottom of the stack.
func (t *Thread) ownerAt(i int) *ownerRecord {
	if i < ownerInline {
		return &t.owner[i]
	}
	return &t.ownerSpill[i-ownerInline]
}

// OwnerSaved returns the word t saved when it took word flat, and whether t
// holds a record for it (diagnostics and tests).
func (t *Thread) OwnerSaved(word *atomic.Uint64) (uint64, bool) {
	if i := t.findOwner(word); i >= 0 {
		return t.ownerAt(i).saved, true
	}
	return 0, false
}

// OwnerDepth returns the number of flat holds t has recorded and not yet
// released.
func (t *Thread) OwnerDepth() int { return int(t.owners) }
