package lockword

import (
	"testing"
	"testing/quick"
)

func TestControlBitsDisjoint(t *testing.T) {
	bits := []uint64{InflationBit, FLCBit, LockBit}
	for i := range bits {
		for j := range bits {
			if i != j && bits[i]&bits[j] != 0 {
				t.Fatalf("control bits overlap: %#x & %#x", bits[i], bits[j])
			}
		}
	}
	if SoleroRecMask&(InflationBit|FLCBit|LockBit) != 0 {
		t.Fatalf("SOLERO recursion mask overlaps control bits")
	}
	if ConvRecMask&(InflationBit|FLCBit) != 0 {
		t.Fatalf("conventional recursion mask overlaps control bits")
	}
	if TIDMask&(SoleroRecMask|InflationBit|FLCBit|LockBit) != 0 {
		t.Fatalf("tid field overlaps low byte")
	}
}

func TestSoleroFreeMask(t *testing.T) {
	if SoleroFreeMask != 0x7 {
		t.Fatalf("SoleroFreeMask = %#x, want 0x7 (paper's v & 0x7)", SoleroFreeMask)
	}
	if SoleroRecOne != 0x8 {
		t.Fatalf("SoleroRecOne = %#x, want 0x8 (paper's lock += 0x8)", SoleroRecOne)
	}
	if CounterOne != 0x100 {
		t.Fatalf("CounterOne = %#x, want 0x100 (paper's v1 + 0x100)", CounterOne)
	}
}

func TestSoleroOwnedRoundTrip(t *testing.T) {
	w := SoleroOwned(42, 3)
	if !SoleroHeld(w) {
		t.Fatalf("owned word not held: %s", String(w))
	}
	if !SoleroHeldBy(w, 42) {
		t.Fatalf("owned word not held by 42: %s", String(w))
	}
	if SoleroHeldBy(w, 41) {
		t.Fatalf("owned word held by wrong tid")
	}
	if got := SoleroRec(w); got != 3 {
		t.Fatalf("rec = %d, want 3", got)
	}
	if SoleroFree(w) {
		t.Fatalf("owned word reported free")
	}
	if SoleroFastReleasable(w) {
		t.Fatalf("word with recursion must not be fast-releasable")
	}
	if !SoleroFastReleasable(SoleroOwned(42, 0)) {
		t.Fatalf("rec-0 owned word must be fast-releasable")
	}
}

func TestSoleroFreeWordRoundTrip(t *testing.T) {
	w := SoleroFreeWord(12345)
	if !SoleroFree(w) {
		t.Fatalf("free word not free: %s", String(w))
	}
	if got := SoleroCounter(w); got != 12345 {
		t.Fatalf("counter = %d, want 12345", got)
	}
	if SoleroHeld(w) || Inflated(w) || FLC(w) {
		t.Fatalf("free word has stray bits: %s", String(w))
	}
}

func TestSoleroNextFreeAdvancesCounter(t *testing.T) {
	pre := SoleroFreeWord(7)
	next := SoleroNextFree(pre)
	if !SoleroFree(next) {
		t.Fatalf("release word not free: %s", String(next))
	}
	if got := SoleroCounter(next); got != 8 {
		t.Fatalf("counter after release = %d, want 8", got)
	}
	// Release must clear stray low bits (e.g. an FLC bit that raced in
	// before the owner's slow release rewrote the word).
	next = SoleroNextFree(pre | FLCBit)
	if FLC(next) || !SoleroFree(next) {
		t.Fatalf("release did not clear low bits: %s", String(next))
	}
	if got := SoleroCounter(next); got != 8 {
		t.Fatalf("counter after FLC release = %d, want 8", got)
	}
}

func TestInflatedWordRoundTrip(t *testing.T) {
	w := InflatedWord(99)
	if !Inflated(w) {
		t.Fatalf("inflated word not inflated")
	}
	if got := MonitorID(w); got != 99 {
		t.Fatalf("monitor id = %d, want 99", got)
	}
	if SoleroFree(w) || SoleroHeld(w) {
		t.Fatalf("inflated word misclassified: %s", String(w))
	}
}

func TestConvOwnedRoundTrip(t *testing.T) {
	w := ConvOwned(17, 5)
	if !ConvHeld(w) || !ConvHeldBy(w, 17) || ConvHeldBy(w, 16) {
		t.Fatalf("conventional ownership wrong: %#x", w)
	}
	if got := ConvRec(w); got != 5 {
		t.Fatalf("conv rec = %d, want 5", got)
	}
	if ConvFastReleasable(w) {
		t.Fatalf("recursive word must not fast-release")
	}
	if !ConvFastReleasable(ConvOwned(17, 0)) {
		t.Fatalf("rec-0 conventional word must fast-release")
	}
	if !ConvFree(0) || ConvFree(w) {
		t.Fatalf("ConvFree wrong")
	}
}

func TestWithField(t *testing.T) {
	w := SoleroOwned(10, 2) | FLCBit
	w2 := WithField(w, 77)
	if Field(w2) != 77 {
		t.Fatalf("field = %d, want 77", Field(w2))
	}
	if w2&LowByte != w&LowByte {
		t.Fatalf("WithField disturbed low byte: %#x vs %#x", w2&LowByte, w&LowByte)
	}
}

// Property: for any 56-bit tid and 5-bit rec, encoding and decoding a SOLERO
// owned word round-trips and never reports free.
func TestQuickSoleroOwned(t *testing.T) {
	f := func(tid uint64, rec uint8) bool {
		tid &= (1 << 56) - 1
		if tid == 0 {
			tid = 1
		}
		r := uint64(rec) % (SoleroRecMax + 1)
		w := SoleroOwned(tid, r)
		return SoleroHeldBy(w, tid) && SoleroRec(w) == r && !SoleroFree(w) && !Inflated(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SoleroNextFree always yields a free word whose counter is one
// more than the pre-acquire counter, regardless of stray low bits.
func TestQuickSoleroNextFree(t *testing.T) {
	f := func(counter uint64, low uint8) bool {
		counter &= (1 << 55) - 1 // avoid wrap in the property itself
		pre := SoleroFreeWord(counter) | uint64(low)
		next := SoleroNextFree(pre)
		return SoleroFree(next) && SoleroCounter(next) == counter+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a free word and the owned word for any tid never compare equal,
// so an elided reader can never mistake a held lock for its snapshot.
func TestQuickFreeNeverEqualsOwned(t *testing.T) {
	f := func(counter, tid uint64) bool {
		counter &= (1 << 56) - 1
		tid &= (1 << 56) - 1
		return SoleroFreeWord(counter) != SoleroOwned(tid, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringForms(t *testing.T) {
	cases := []uint64{SoleroFreeWord(3), SoleroOwned(9, 1), InflatedWord(4), SoleroFreeWord(0) | FLCBit}
	for _, w := range cases {
		if String(w) == "" {
			t.Fatalf("empty string for %#x", w)
		}
	}
}

// TestStringRendersTicket checks the diagnostic form of each word kind; an
// inflated word prints the table ticket it carries.
func TestStringRendersTicket(t *testing.T) {
	for _, tc := range []struct {
		w    uint64
		want string
	}{
		{TicketWord(3, 17, 5) | FLCBit, "inflated{shard=3 index=17 gen=5 flc=true}"},
		{TicketWord(0, 0, 0), "inflated{shard=0 index=0 gen=0 flc=false}"},
		{SoleroOwned(7, 2), "held{tid=7 rec=2 flc=false}"},
		{SoleroFreeWord(9), "free{counter=9 flc=false}"},
	} {
		if got := String(tc.w); got != tc.want {
			t.Errorf("String(%#x) = %q, want %q", tc.w, got, tc.want)
		}
	}
}
