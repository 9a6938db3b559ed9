// Package jthread models the JVM threading substrate SOLERO relies on:
// VM-attached threads with compact thread ids, and the asynchronous event
// mechanism the paper uses to recover from infinite loops caused by
// inconsistent speculative reads (§3.3).
//
// In the paper, the JVM occasionally sends asynchronous events to threads;
// JIT-inserted checkpoints at method entries and loop back-edges observe the
// event and validate every active speculative read-only critical section by
// comparing each local lock value against the current lock word. A mismatch
// aborts the speculation with an exception that the lock's recovery handler
// catches and turns into a retry.
//
// Here, a VM owns a registry of Threads. Each Thread keeps a stack of
// speculative frames (lock-word address + the value saved at section entry).
// Checkpoint is the compiled-in poll: when an async event is pending it walks
// the frame stack exactly as the paper walks the call stack, and panics with
// ErrInconsistentRead if any frame is stale. The SOLERO runner recovers from
// that panic and retries the section. A Thread also keeps the writer's side
// of the local lock variable: an owner record per lock it holds flat
// (owners.go).
package jthread

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/stats"
)

// MaxThreadID is the largest assignable thread id (the id shares the 56-bit
// lock-word field with the sequence counter).
const MaxThreadID = (uint64(1) << 56) - 1

// InconsistentReadError is the panic payload raised by Checkpoint when a
// speculative read-only section is found to be stale. It plays the role of
// the paper's internally-thrown validation exception; Word identifies the
// lock whose speculation must be retried, so nested speculative sections can
// unwind to the right level.
type InconsistentReadError struct {
	// Word is the lock word whose validation failed.
	Word *atomic.Uint64
}

func (*InconsistentReadError) Error() string {
	return "jthread: speculative read-only critical section observed a changed lock value"
}

// SpecFrame records one active speculative read-only critical section:
// the lock word being elided and the value it held at section entry
// (the paper's "local lock variable").
type SpecFrame struct {
	Word  *atomic.Uint64
	Saved uint64
}

// Stale reports whether the lock word no longer matches the saved value.
func (f SpecFrame) Stale() bool { return f.Word.Load() != f.Saved }

// frameStackCap sizes the speculative-frame stack allocated at Attach to
// one whole false-sharing range. Every speculative section writes a frame,
// so two threads' stacks must not share a line: a smaller array, grown on
// first use, lands next to another thread's in the same size class.
// Nesting deeper than frameStackCap sections is allowed: PushSpec grows the
// stack with one allocation, which the thread keeps.
const frameStackCap = stats.FalseSharingRange / int(unsafe.Sizeof(SpecFrame{}))

// Thread is a VM-attached thread. All lock operations take the current
// Thread explicitly (Go has no goroutine-local storage; a managed runtime
// would thread this through its execution context the same way).
//
// A Thread must only ever be used by a single goroutine at a time.
//
// The fields the fast paths use open the struct, within its first 64
// bytes: the id and the first owner record (the write path), and the
// speculative-frame stack header (the read path). TestThreadHotLine pins
// the layout.
type Thread struct {
	vm *VM
	id uint64

	// owners counts the thread's owner records (see owners.go): the first
	// ownerInline live in owner, the rest in ownerSpill. Plain by the
	// single-goroutine contract.
	owners uint32

	// stripe is the precomputed stripe index: sequential ids round-robin
	// across any power-of-two stripe count (the metrics registry masks it
	// down to its stripe array).
	stripe uint32

	frames []SpecFrame

	owner      [ownerInline]ownerRecord
	ownerSpill []ownerRecord

	name string

	// serial is the thread's process-unique serial (see Serial).
	serial uint64

	asyncPending atomic.Bool

	// pages is the thread's counter-page index (see counters.go):
	// pages[id>>pageShift] holds its slot for stats id. The thread reads it
	// without a lock and writes it only under ctrs.mu, beside lease.dir.
	pages []*counterPage
	// lease holds the thread's live counter directory (nil until its first
	// count, and again after Detach).
	lease *counterLease

	// forceEvery, when > 0, makes every forceEvery'th Checkpoint validate
	// even without a pending async event. Deterministic tests use this.
	forceEvery  uint64
	checkpoints uint64

	// sampleTick is the thread-local counter behind the metrics CS-duration
	// sampling gate. Plain (non-atomic) by the Thread's single-goroutine
	// contract.
	sampleTick uint32

	// local is opaque per-thread state owned by the lock runtime built on
	// this package (internal/core keeps its reusable read-mostly Section
	// records here). Plain by the single-goroutine contract.
	local any

	// Checkpoints observed with a pending event (stats).
	eventsSeen uint64

	detached bool
}

// ID returns the thread's 56-bit id (>= 1).
func (t *Thread) ID() uint64 { return t.id }

// SampleTick advances the thread-local sampling counter and reports whether
// this event is selected — true on every (mask+1)'th call, where mask is a
// sampling period minus one (a power of two minus one, e.g. from
// metrics.Registry.CSSampleMask). It is deliberately free of atomics and
// shared state: a Thread is single-goroutine by contract, which makes this
// the cheapest sampling gate the elided read fast path can carry.
func (t *Thread) SampleTick(mask uint32) bool {
	t.sampleTick++
	return t.sampleTick&mask == 0
}

// Serial returns the thread's process-unique serial: unlike ID, which each
// VM numbers from 1, no two threads of any VM in the process ever share a
// serial, and a serial is never reused after Detach. It is never zero, so
// it names a thread across VMs in a plain word.
func (t *Thread) Serial() uint64 { return t.serial }

// StripeIndex returns the thread's precomputed stripe index, used by
// sharded statistics (the metrics registry) to pick a cache-line-padded
// stripe without hashing on the hot path. Consecutively attached threads map to
// consecutive stripes, so any power-of-two stripe count sees a round-robin
// spread.
func (t *Thread) StripeIndex() uint32 { return t.stripe }

// Name returns the diagnostic name given at Attach.
func (t *Thread) Name() string { return t.name }

// VM returns the owning VM.
func (t *Thread) VM() *VM { return t.vm }

// SetForceValidateEvery makes every nth Checkpoint validate unconditionally
// (n == 0 restores event-driven-only validation).
func (t *Thread) SetForceValidateEvery(n uint64) { t.forceEvery = n }

// PushSpec records entry into a speculative read-only critical section.
func (t *Thread) PushSpec(word *atomic.Uint64, saved uint64) {
	t.frames = append(t.frames, SpecFrame{Word: word, Saved: saved})
}

// PopSpec records exit from the innermost speculative section.
func (t *Thread) PopSpec() {
	if len(t.frames) == 0 {
		panic("jthread: PopSpec with no active speculative frame")
	}
	t.frames = t.frames[:len(t.frames)-1]
}

// SpecDepth returns the number of active speculative frames.
func (t *Thread) SpecDepth() int { return len(t.frames) }

// Local returns the per-thread state last stored by SetLocal (nil at
// Attach).
func (t *Thread) Local() any { return t.local }

// SetLocal stores per-thread state for the lock runtime built on this
// package. Single-goroutine by the Thread's contract.
func (t *Thread) SetLocal(v any) { t.local = v }

// Poke delivers an asynchronous event to the thread; the next Checkpoint
// will validate all active speculative frames.
func (t *Thread) Poke() { t.asyncPending.Store(true) }

// Checkpoint is the JIT-inserted asynchronous check point (method entries
// and loop back-edges). If an async event is pending — or the forced
// validation period has elapsed — it validates every active speculative
// frame and panics with ErrInconsistentRead on the first stale one.
func (t *Thread) Checkpoint() {
	t.checkpoints++
	force := t.forceEvery > 0 && t.checkpoints%t.forceEvery == 0
	if !t.asyncPending.Load() && !force {
		return
	}
	if t.asyncPending.Swap(false) {
		t.eventsSeen++
	}
	t.validateFrames()
}

// validateFrames walks the speculative frame stack top-down, as the paper
// walks the call stack, and aborts on the first stale frame.
func (t *Thread) validateFrames() {
	for i := len(t.frames) - 1; i >= 0; i-- {
		if t.frames[i].Stale() {
			panic(&InconsistentReadError{Word: t.frames[i].Word})
		}
	}
}

// EventsSeen returns how many async events the thread has consumed.
func (t *Thread) EventsSeen() uint64 { return t.eventsSeen }

// Detach unregisters the thread from its VM and folds its counter slots
// into the retired table, so the counts it made stay in every total. Using
// a detached thread with any lock operation is a bug.
//
// A thread that still holds a lock flat (OwnerDepth > 0: an owner record,
// see owners.go) cannot detach: nobody else could ever release the lock, so
// Detach panics with ErrDetachHolding and leaves the thread attached and its
// records intact; the thread may release its locks and detach again.
func (t *Thread) Detach() {
	if t.detached {
		return
	}
	if t.owners != 0 {
		panic(ErrDetachHolding)
	}
	t.detached = true
	t.vm.detach(t)
	t.retireCounters()
}

// ErrDetachHolding is the panic value of Detach on a thread that still
// holds a lock flat.
var ErrDetachHolding = errors.New("jthread: Detach while holding a lock flat")

// lastSerial is the most recently issued thread serial.
var lastSerial atomic.Uint64

// VM is the virtual-machine context: a thread registry plus the periodic
// asynchronous-event source (the stand-in for the JVM's GC-check events).
type VM struct {
	mu      sync.Mutex
	threads map[uint64]*Thread
	nextID  uint64

	pokerStop chan struct{}
	pokerDone chan struct{}
}

// NewVM creates an empty VM.
func NewVM() *VM {
	return &VM{threads: make(map[uint64]*Thread), nextID: 1}
}

// Attach registers a new thread and returns its handle.
func (vm *VM) Attach(name string) *Thread {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	if vm.nextID > MaxThreadID {
		panic("jthread: thread id space exhausted")
	}
	t := &Thread{
		vm: vm, id: vm.nextID, name: name, stripe: uint32(vm.nextID - 1),
		frames: make([]SpecFrame, 0, frameStackCap),
	}
	vm.nextID++
	vm.threads[t.id] = t
	t.serial = lastSerial.Add(1)
	return t
}

func (vm *VM) detach(t *Thread) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	delete(vm.threads, t.id)
}

// NumThreads returns the number of attached threads.
func (vm *VM) NumThreads() int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return len(vm.threads)
}

// PokeAll delivers an asynchronous event to every attached thread now.
func (vm *VM) PokeAll() {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	for _, t := range vm.threads {
		t.Poke()
	}
}

// StartAsyncEvents begins delivering asynchronous events to all threads
// every interval, emulating the JVM's occasional async events. It is a
// no-op if events are already running.
func (vm *VM) StartAsyncEvents(interval time.Duration) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	if vm.pokerStop != nil {
		return
	}
	if interval <= 0 {
		panic(fmt.Sprintf("jthread: non-positive async event interval %v", interval))
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	vm.pokerStop, vm.pokerDone = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				vm.PokeAll()
			}
		}
	}()
}

// StopAsyncEvents stops the event source and waits for it to exit.
func (vm *VM) StopAsyncEvents() {
	vm.mu.Lock()
	stop, done := vm.pokerStop, vm.pokerDone
	vm.pokerStop, vm.pokerDone = nil, nil
	vm.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
