package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/jthread"
	"repro/internal/trace"
)

func TestTracerRecordsProtocolHistory(t *testing.T) {
	cfg := *DefaultConfig
	cfg.Tracer = trace.New(256)
	vm := jthread.NewVM()
	l := New(&cfg)
	a := vm.Attach("a")
	b := vm.Attach("b")

	l.Lock(a)
	l.Unlock(a)
	l.ReadOnly(a, func() {})
	// A failed elision + fallback.
	runs := 0
	l.ReadOnly(a, func() {
		runs++
		if runs == 1 {
			l.Lock(b)
			l.Unlock(b)
		}
	})
	// A wait episode (inflates).
	l.Lock(a)
	l.WaitTimeout(a, time.Millisecond)
	l.Unlock(a)
	// A read-mostly upgrade.
	l.ReadMostly(a, func(s *Section) { s.BeforeWrite() })

	dump := cfg.Tracer.Dump()
	for _, want := range []string{
		"acquire-fast", "release", "elide-ok", "elide-fail", "fallback",
		"inflate", "deflate", "wait", "upgrade",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("trace missing %q:\n%s", want, dump)
		}
	}
}

func TestTracerOffByDefaultCostsNothingVisible(t *testing.T) {
	vm := jthread.NewVM()
	l := New(nil)
	th := vm.Attach("t")
	for i := 0; i < 100; i++ {
		l.Lock(th)
		l.Unlock(th)
		l.ReadOnly(th, func() {})
	}
	// Just exercising the nil-tracer paths; nothing to assert beyond
	// "did not panic / did not record".
}

// TestTracerRecordsReadMostly: a read-mostly section records the same
// elision events as a read-only one — a clean section one elide-ok, a
// section whose speculation fails and falls back one elide-fail and one
// fallback.
func TestTracerRecordsReadMostly(t *testing.T) {
	kinds := func(r *trace.Ring) map[trace.Kind]int {
		n := map[trace.Kind]int{}
		for _, e := range r.Snapshot() {
			n[e.Kind]++
		}
		return n
	}
	ths := newT(t, 2)
	a, b := ths[0], ths[1]

	cfg := *DefaultConfig
	cfg.Tracer = trace.New(64)
	l := New(&cfg)
	l.ReadMostly(a, func(*Section) {})
	if got := kinds(cfg.Tracer); got[trace.EvElideSuccess] != 1 || len(got) != 1 {
		t.Fatalf("clean read-mostly section traced %v, want one elide-ok", got)
	}

	cfg.Tracer = trace.New(64)
	l = New(&cfg)
	runs := 0
	l.ReadMostly(a, func(*Section) {
		if runs++; runs == 1 {
			l.Sync(b, func() {})
		}
	})
	got := kinds(cfg.Tracer)
	if got[trace.EvElideFailure] != 1 || got[trace.EvFallback] != 1 || got[trace.EvElideSuccess] != 0 {
		t.Fatalf("failed read-mostly section traced %v, want one elide-fail and one fallback", got)
	}
}
