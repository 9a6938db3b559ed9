// Package lockword defines the 64-bit lock-word layouts used by the
// conventional tasuki lock and by SOLERO, and pure helper functions for
// encoding, decoding, and testing lock-word values.
//
// Both layouts share the low-order control bits:
//
//	bit 0      inflation bit (set: lock word holds a monitor id, fat mode)
//	bit 1      FLC (flat-lock-contention) bit
//
// The conventional layout (paper Figure 1) uses bits 2..7 as a six-bit
// recursion counter and bits 8..63 as the owner thread id. A word of zero
// means the lock is free.
//
// The SOLERO layout (paper Figure 5) additionally dedicates bit 2 as the
// lock bit, leaving bits 3..7 as a five-bit recursion counter. Bits 8..63
// hold a 56-bit sequence counter while the lock is free and the owner
// thread id while it is held. Every writing critical section publishes a
// fresh counter on release (old counter + CounterOne), which is what lets
// elided read-only sections detect intervening writers.
package lockword

import "fmt"

// Control bits shared by both layouts.
const (
	// InflationBit marks the word as holding a monitor id (fat mode).
	InflationBit uint64 = 1 << 0
	// FLCBit marks contention detected on a flat lock.
	FLCBit uint64 = 1 << 1
	// LockBit marks a held SOLERO flat lock (SOLERO layout only).
	LockBit uint64 = 1 << 2

	// TIDShift is the bit position of the thread-id/counter field.
	TIDShift = 8
	// TIDMask selects the 56-bit thread-id/counter field.
	TIDMask uint64 = ^uint64(0xff)

	// CounterOne is the increment applied to the sequence counter by each
	// writing critical section (one unit of the bits-8..63 field).
	CounterOne uint64 = 1 << TIDShift

	// LowByte selects the control and recursion bits.
	LowByte uint64 = 0xff
)

// Conventional (tasuki) layout: recursion in bits 2..7.
const (
	// ConvRecOne is one unit of the conventional recursion counter.
	ConvRecOne uint64 = 1 << 2
	// ConvRecMask selects the conventional recursion counter.
	ConvRecMask uint64 = 0x3f << 2
	// ConvRecMax is the saturation value of the conventional counter.
	ConvRecMax = 63
)

// SOLERO layout: recursion in bits 3..7.
const (
	// SoleroRecOne is one unit of the SOLERO recursion counter
	// (the paper's "obj->lock += 0x8").
	SoleroRecOne uint64 = 1 << 3
	// SoleroRecMask selects the SOLERO recursion counter.
	SoleroRecMask uint64 = 0x1f << 3
	// SoleroRecMax is the saturation value of the SOLERO counter.
	SoleroRecMax = 31
	// SoleroFreeMask selects the bits that must all be clear for a SOLERO
	// flat lock to be free and un-contended (the paper's "v & 0x7").
	SoleroFreeMask uint64 = InflationBit | FLCBit | LockBit
)

// Inflated reports whether w is in fat mode.
func Inflated(w uint64) bool { return w&InflationBit != 0 }

// FLC reports whether the flat-lock-contention bit is set.
func FLC(w uint64) bool { return w&FLCBit != 0 }

// Field extracts the 56-bit thread-id/counter/monitor-id field.
func Field(w uint64) uint64 { return w >> TIDShift }

// WithField returns w with its 56-bit high field replaced by f.
func WithField(w, f uint64) uint64 { return (w &^ TIDMask) | f<<TIDShift }

// MonitorID extracts the monitor field of an inflated word: the compact
// monitor table ticket naming the lock's entry (see ticket.go).
func MonitorID(w uint64) uint64 { return Field(w) }

// InflatedWord encodes a monitor field (a table ticket) as an inflated
// lock word.
func InflatedWord(monitorID uint64) uint64 { return monitorID<<TIDShift | InflationBit }

// --- Conventional layout helpers ---

// ConvFree reports whether a conventional word is entirely free
// (no owner, no recursion, no FLC, thin mode).
func ConvFree(w uint64) bool { return w == 0 }

// ConvHeld reports whether a conventional flat word is held by some thread.
func ConvHeld(w uint64) bool { return !Inflated(w) && Field(w) != 0 }

// ConvHeldBy reports whether a conventional flat word is held by tid.
func ConvHeldBy(w, tid uint64) bool { return !Inflated(w) && Field(w) == tid }

// ConvOwned encodes a conventional flat word held by tid with rec recursions.
func ConvOwned(tid uint64, rec uint64) uint64 { return tid<<TIDShift | rec<<2 }

// ConvRec extracts the conventional recursion count.
func ConvRec(w uint64) uint64 { return (w & ConvRecMask) >> 2 }

// ConvFastReleasable reports whether the conventional fast release path
// applies (the paper's "(obj->lock & 0xff) == 0": flat, no recursion,
// no contention flag).
func ConvFastReleasable(w uint64) bool { return w&LowByte == 0 }

// --- SOLERO layout helpers ---

// SoleroFree reports whether a SOLERO word allows fast acquisition or
// elision: thin mode, unheld, un-contended (the paper's "(v & 0x7) == 0").
func SoleroFree(w uint64) bool { return w&SoleroFreeMask == 0 }

// SoleroHeld reports whether a SOLERO flat word is held.
func SoleroHeld(w uint64) bool { return !Inflated(w) && w&LockBit != 0 }

// SoleroHeldBy reports whether a SOLERO flat word is held by tid.
func SoleroHeldBy(w, tid uint64) bool { return SoleroHeld(w) && Field(w) == tid }

// SoleroOwned encodes a SOLERO flat word held by tid with rec recursions
// (the paper's "thread_id + LOCK_BIT" for rec == 0).
func SoleroOwned(tid uint64, rec uint64) uint64 {
	return tid<<TIDShift | rec<<3 | LockBit
}

// SoleroRec extracts the SOLERO recursion count.
func SoleroRec(w uint64) uint64 { return (w & SoleroRecMask) >> 3 }

// SoleroCounter extracts the sequence counter from a free SOLERO word.
func SoleroCounter(w uint64) uint64 { return Field(w) }

// SoleroFreeWord encodes a free SOLERO word carrying counter c.
func SoleroFreeWord(c uint64) uint64 { return c << TIDShift }

// SoleroNextFree returns the word a writer publishes on release: the
// pre-acquisition word advanced by one counter unit with all control and
// recursion bits cleared (the paper's "v1 + 0x100" applied to a v1 whose
// low byte was zero).
func SoleroNextFree(preAcquire uint64) uint64 {
	return (preAcquire &^ LowByte) + CounterOne
}

// SoleroFastReleasable reports whether the SOLERO fast release path applies
// (the paper's "(v2 & 0xff) == LOCK_BIT": flat, held, no recursion, no FLC).
func SoleroFastReleasable(w uint64) bool { return w&LowByte == LockBit }

// String renders a SOLERO word for diagnostics. An inflated word prints as
// the table ticket it carries.
func String(w uint64) string {
	switch {
	case Inflated(w):
		tk := MonitorID(w)
		return fmt.Sprintf("inflated{shard=%d index=%d gen=%d flc=%v}",
			TicketShard(tk), TicketIndex(tk), TicketGen(tk), FLC(w))
	case w&LockBit != 0:
		return fmt.Sprintf("held{tid=%d rec=%d flc=%v}", Field(w), SoleroRec(w), FLC(w))
	default:
		return fmt.Sprintf("free{counter=%d flc=%v}", Field(w), FLC(w))
	}
}
