package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
)

// TestTracerRecordsProtocolHistory: the event log behind `lockstats -trace`
// (a bounded tail, as lockstats wires it) shows every kind of protocol
// transition a short run goes through.
func TestTracerRecordsProtocolHistory(t *testing.T) {
	cfg := *DefaultConfig
	cfg.History = history.NewTail(256)
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

	dump := cfg.History.Format(0)
	for _, want := range []string{
		"acquire", "release", "read-ok", "read-fail", "read-fallback",
		"inflate", "deflate", "wait", "upgrade",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("log missing %q:\n%s", want, dump)
		}
	}
}

// TestTracerRecordsReadMostly: a read-mostly section records the same
// elision events as a read-only one — a clean section one read-ok, a
// section whose speculation fails and falls back one read-fail and one
// read-fallback (plus the fallback's own acquire and release).
func TestTracerRecordsReadMostly(t *testing.T) {
	ths := newT(t, 2)
	a, b := ths[0], ths[1]

	cfg := *DefaultConfig
	cfg.History = history.New()
	l := New(&cfg)
	l.ReadMostly(a, func(*Section) {})
	if got := cfg.History.Summary(); got["read-ok"] != 1 || len(got) != 1 {
		t.Fatalf("clean read-mostly section logged %v, want one read-ok", got)
	}

	cfg.History = history.New()
	l = New(&cfg)
	runs := 0
	l.ReadMostly(a, func(*Section) {
		if runs++; runs == 1 {
			l.Sync(b, func() {})
		}
	})
	got := cfg.History.Summary()
	if got["read-fail"] != 1 || got["read-fallback"] != 1 || got["read-ok"] != 0 {
		t.Fatalf("failed read-mostly section logged %v, want one read-fail and one read-fallback", got)
	}
}
