package jthread

// Thread-owned counter pages. A lock runtime that wants per-lock counters
// its readers bump without writing a shared cache line gives each counted
// lock a stats id; every thread keeps, for each id it has counted on, one
// slot of SlotCounters words in a page of its own. A thread bumps its slot
// with a plain load and store (it is the slot's only writer), so the bump
// executes no locked instruction, and a lock pays nothing per thread in its
// own bytes: the per-thread memory lives with the threads.
//
// A counter's total is its retired slot plus the sum of the live threads'
// slots, read under ctrs.mu (CounterTotals). A thread leaves the live set by
// folding its slots into the retired table under the same mutex — at
// Detach, or by finalizer when it is dropped without one — so a total never
// moves backwards: every live slot only grows, and the fold moves a slot's
// value into the retired table atomically with respect to readers. Once the
// counting threads are quiescent (joined, or detached), the total is exact.
//
// Memory-model argument for reading a slot while its owner writes it: a
// slot word is one aligned machine word, and the Go memory model guarantees
// that a racy read of a word-sized location observes a value some write
// actually stored — never a torn or invented one. The owner only ever stores
// its previous value plus one, so a concurrent reader sees each slot move
// only forward. Readers load slots atomically; the owner's plain increment
// lives in the lock runtime (it must not be race-instrumented).
//
// Ids are dense and recycled: NewCounterID pops a free id or raises the
// high-water mark, and FreeCounterID — run when the lock that held the id is
// garbage — zeroes the id's slot in every live page and in the retired
// table before the id may be handed out again. The id space is 1 ..
// MaxCounterID; 0 is never issued and means "no id". When it is exhausted,
// NewCounterID returns 0 and the lock runtime counts in shared per-lock
// atomics instead, which stay exact.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SlotCounters is the number of counters in one slot: one thread's
// single-writer counters for one stats id.
const SlotCounters = 2

// CounterSlot is one thread's single-writer counters for one stats id. Only
// the owning thread writes it; anyone may load it.
type CounterSlot [SlotCounters]atomic.Uint64

// A counter page holds pageSlots consecutive ids' slots: 4 KB, one size
// class and one OS page, so a thread's first count on a lock allocates at
// most that much.
const (
	pageShift = 8
	pageSlots = 1 << pageShift
	pageMask  = pageSlots - 1
)

type counterPage [pageSlots]CounterSlot

// MaxCounterID is the largest stats id NewCounterID issues.
const MaxCounterID = 1<<32 - 1

// counterDir is a set of slots indexed by stats id: pages[id>>pageShift]
// holds id's slot, or is nil (or past the end) while no slot in that page
// has been touched. A live thread's directory is written by the thread, under
// ctrs.mu; the retired table's only under ctrs.mu.
type counterDir struct {
	pages []*counterPage
	// idx is the directory's index in ctrs.live (-1: not live).
	idx int
}

// slot returns id's slot in d, or nil when its page is absent.
func (d *counterDir) slot(id uint32) *CounterSlot {
	if i := id >> pageShift; i < uint32(len(d.pages)) && d.pages[i] != nil {
		return &d.pages[i][id&pageMask]
	}
	return nil
}

// grow returns id's slot in d, allocating its page (and growing the page
// index) as needed. Called under ctrs.mu.
func (d *counterDir) grow(id uint32) *CounterSlot {
	i := int(id >> pageShift)
	if i >= len(d.pages) {
		pages := make([]*counterPage, i+1, max(i+1, 2*len(d.pages)))
		copy(pages, d.pages)
		d.pages = pages
	}
	if d.pages[i] == nil {
		d.pages[i] = new(counterPage)
		ctrs.pages++
	}
	return &d.pages[i][id&pageMask]
}

// counterLease ties a thread's directory to the thread's lifetime: the
// thread points to it, the registry does not, so a thread dropped without
// Detach still has its slots folded into the retired table — by the
// lease's finalizer — instead of staying in the live set forever.
type counterLease struct{ dir *counterDir }

// ctrs is the process-wide counter registry.
var ctrs = struct {
	mu sync.Mutex
	// live holds the directories of threads that have counted and not
	// retired.
	live []*counterDir
	// retired holds the folded slots of retired threads.
	retired counterDir
	// free holds recycled ids, reused last-in first-out.
	free []uint32
	// next is the high-water mark: ids 1..next have been issued.
	next uint32
	// limit is the largest id that may be issued (MaxCounterID; tests of
	// the exhausted outcome lower it).
	limit uint32
	// pages counts the pages allocated in live and retired directories.
	pages int
}{retired: counterDir{idx: -1}, limit: MaxCounterID}

// NewCounterID issues a stats id, or returns 0 when the id space is
// exhausted.
func NewCounterID() uint32 {
	ctrs.mu.Lock()
	defer ctrs.mu.Unlock()
	if n := len(ctrs.free); n > 0 {
		id := ctrs.free[n-1]
		ctrs.free = ctrs.free[:n-1]
		return id
	}
	if ctrs.next >= ctrs.limit {
		return 0
	}
	ctrs.next++
	return ctrs.next
}

// FreeCounterID returns id to the free list, zeroing its slot in every live
// directory and in the retired table. The caller guarantees no thread
// counts on id any more: it runs when the lock holding id is garbage.
func FreeCounterID(id uint32) {
	if id == 0 {
		return
	}
	ctrs.mu.Lock()
	defer ctrs.mu.Unlock()
	for _, d := range ctrs.live {
		zeroSlot(d.slot(id))
	}
	zeroSlot(ctrs.retired.slot(id))
	ctrs.free = append(ctrs.free, id)
}

func zeroSlot(s *CounterSlot) {
	if s == nil {
		return
	}
	for k := range s {
		s[k].Store(0)
	}
}

// CounterTotals returns each counter of stats id summed over the retired
// table and every live thread's slot. It is exact once the counting threads
// are quiescent and never smaller than an earlier call's result.
func CounterTotals(id uint32) (out [SlotCounters]uint64) {
	if id == 0 {
		return out
	}
	ctrs.mu.Lock()
	defer ctrs.mu.Unlock()
	add := func(s *CounterSlot) {
		if s != nil {
			for k := range s {
				out[k] += s[k].Load()
			}
		}
	}
	add(ctrs.retired.slot(id))
	for _, d := range ctrs.live {
		add(d.slot(id))
	}
	return out
}

// CounterFootprint reports the registry's size: the id high-water mark, the
// ids on the free list, and the counter pages allocated across live threads
// and the retired table.
func CounterFootprint() (highWater uint32, free, pages int) {
	ctrs.mu.Lock()
	defer ctrs.mu.Unlock()
	return ctrs.next, len(ctrs.free), ctrs.pages
}

// CounterSlot returns t's slot for stats id, or nil when id is 0 or t has
// not counted in id's page yet (NewCounterSlot allocates it). It touches
// only t's own state.
func (t *Thread) CounterSlot(id uint32) *CounterSlot {
	i := id >> pageShift
	if id == 0 || i >= uint32(len(t.pages)) {
		return nil
	}
	if p := t.pages[i]; p != nil {
		return &p[id&pageMask]
	}
	return nil
}

// NewCounterSlot returns t's slot for stats id (non-zero), allocating its
// page — and, at t's first count, joining the live set — as needed. It
// returns nil for a detached thread, whose counts the caller must keep
// elsewhere.
func (t *Thread) NewCounterSlot(id uint32) *CounterSlot {
	if t.detached {
		return nil
	}
	ctrs.mu.Lock()
	defer ctrs.mu.Unlock()
	if t.lease == nil {
		t.lease = &counterLease{dir: &counterDir{idx: len(ctrs.live)}}
		ctrs.live = append(ctrs.live, t.lease.dir)
		runtime.SetFinalizer(t.lease, (*counterLease).retire)
	}
	s := t.lease.dir.grow(id)
	t.pages = t.lease.dir.pages
	return s
}

// retireCounters folds t's slots into the retired table (see Detach).
func (t *Thread) retireCounters() {
	if t.lease == nil {
		return
	}
	runtime.SetFinalizer(t.lease, nil)
	t.lease.retire()
	t.lease, t.pages = nil, nil
}

// retire folds the directory's slots into the retired table and drops it
// from the live set. It runs at Detach, or as the finalizer of a thread
// dropped without one.
func (l *counterLease) retire() {
	ctrs.mu.Lock()
	defer ctrs.mu.Unlock()
	d := l.dir
	for i, p := range d.pages {
		if p == nil {
			continue
		}
		for j := range p {
			var r *CounterSlot
			for k := range p[j] {
				if v := p[j][k].Load(); v != 0 {
					if r == nil {
						r = ctrs.retired.grow(uint32(i<<pageShift | j))
					}
					r[k].Add(v)
				}
			}
		}
		ctrs.pages--
	}
	last := len(ctrs.live) - 1
	ctrs.live[d.idx] = ctrs.live[last]
	ctrs.live[d.idx].idx = d.idx
	ctrs.live = ctrs.live[:last]
	d.idx = -1
}
