// Package memmodel records the memory-ordering requirements of §3.4 of the
// paper: which fence each lock protocol places at each point, per
// architecture.
//
// Go's sync/atomic operations are sequentially consistent, so the Go
// implementations of the lock protocols are correct with no explicit fences,
// and the locks charge nothing for them. The plans here are the placement
// record: jit/codegen.FencePlans selects them per architecture, and the
// coherence simulator (internal/simcoherence) charges their cost for the
// Figure 10 fence ablation — SOLERO with the conventional lock's
// (insufficient) fences.
//
// The package also contains StoreBuffer, a tiny operational model of a
// store-buffer architecture used by tests and the jitpipeline example to
// demonstrate *why* the entry fence is required: without draining the store
// buffer before an elided read section, a reader can pass validation while
// having observed pre-critical-section stores out of order.
package memmodel

// Fence identifies a fence placement point's required instruction.
type Fence uint8

// Fence kinds, ordered by increasing strength on Power.
const (
	// FenceNone is the absence of a fence.
	FenceNone Fence = iota
	// FenceISync is PowerPC isync: the cheap acquire barrier the
	// conventional lock uses at critical-section entry.
	FenceISync
	// FenceLWSync is PowerPC lwsync: orders everything except
	// store→load; used after the writer's CAS and before release.
	FenceLWSync
	// FenceSync is PowerPC sync (hwsync): the full barrier SOLERO needs
	// after the initial lock-word load of an elided read-only section.
	FenceSync
	// FenceStoreLoad is the store→load fence x86-TSO needs before an
	// elided read-only section (an mfence or locked instruction).
	FenceStoreLoad
)

// String names the fence kind.
func (f Fence) String() string {
	switch f {
	case FenceNone:
		return "none"
	case FenceISync:
		return "isync"
	case FenceLWSync:
		return "lwsync"
	case FenceSync:
		return "sync"
	case FenceStoreLoad:
		return "storeload"
	default:
		return "fence(?)"
	}
}

// Plan gives the fence placed at each point of a lock protocol, following
// §3.4: the writing path fences after its acquiring CAS and before its
// releasing store; the elided read-only path fences after its entry load of
// the lock word and before its validating re-load.
type Plan struct {
	WriteAcquire Fence // after the acquiring CAS
	WriteRelease Fence // before the releasing store
	ReadEnter    Fence // after the entry load of an elided section
	ReadExit     Fence // before the validating re-load
}

// Fence plans per protocol and architecture (§3.4).
var (
	// ConventionalPower: isync at entry, lwsync before release.
	ConventionalPower = Plan{WriteAcquire: FenceISync, WriteRelease: FenceLWSync}
	// SoleroPower: the correct SOLERO placement on Power — lwsync
	// immediately after the acquiring CAS, lwsync before the releasing
	// store, sync immediately after the entry load of an elided section,
	// lwsync before its validating re-load.
	SoleroPower = Plan{
		WriteAcquire: FenceLWSync,
		WriteRelease: FenceLWSync,
		ReadEnter:    FenceSync,
		ReadExit:     FenceLWSync,
	}
	// SoleroWeakBarrier: the Figure 10 ablation — SOLERO running with the
	// conventional lock's fences. Cheaper, and *incorrect* on Power: the
	// entry isync does not order prior stores before the section's loads.
	SoleroWeakBarrier = Plan{
		WriteAcquire: FenceISync,
		WriteRelease: FenceLWSync,
		ReadEnter:    FenceISync,
		ReadExit:     FenceISync,
	}
	// SoleroTSO: on TSO only the store→load fence before an elided
	// section is required (and only when the preceding section elided).
	SoleroTSO = Plan{ReadEnter: FenceStoreLoad}
	// NoFences places no fence anywhere.
	NoFences = Plan{}
)
