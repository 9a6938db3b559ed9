package metrics

// Sampled call-site attribution. Knowing that speculation aborted 40k times
// is less useful than knowing *which lock site* burned the retries; the JVM
// the paper instruments gets this from its profiler, we get it from
// runtime.Callers. Capturing a stack is far too expensive for every abort,
// so the site table is fed by a per-stripe sampling gate (1 in
// defaultSitePeriod aborts) and the table itself — a mutex-guarded map —
// is touched only by those sampled, already-slow executions.

import (
	"runtime"
	"sort"
	"strings"
	"sync"
)

// defaultSitePeriod is the abort-site sampling period (power of two).
const defaultSitePeriod = 16

// siteDepth is how many user frames identify one site.
const siteDepth = 3

type siteKey [siteDepth]uintptr

// siteStats accumulates one site's sampled event counts and — for events
// that carry a dwell (the park and stall waits of EndWait) — cumulative stall nanoseconds, the
// two weights a pprof contention profile needs per stack.
type siteStats struct {
	counts [NumAbortCauses]uint64
	nanos  [NumAbortCauses]uint64
}

// siteTable maps sampled abort/contention sites to per-cause stats.
type siteTable struct {
	mu     sync.Mutex
	counts map[siteKey]*siteStats
}

func newSiteTable() *siteTable {
	return &siteTable{counts: make(map[siteKey]*siteStats)}
}

// record captures the calling stack, drops the lock-internal frames, and
// bumps the site's per-cause counter, accumulating the event's dwell.
func (t *siteTable) record(cause AbortCause, nanos uint64) {
	var pcs [16]uintptr
	n := runtime.Callers(2, pcs[:])
	key := siteKeyFor(pcs[:n])
	t.mu.Lock()
	c := t.counts[key]
	if c == nil {
		c = new(siteStats)
		t.counts[key] = c
	}
	c.counts[cause]++
	c.nanos[cause] += nanos
	t.mu.Unlock()
}

// internalFrame reports whether a function belongs to the lock machinery
// itself (and so does not identify a *user* lock site).
func internalFrame(fn string) bool {
	for _, prefix := range []string{
		"repro/internal/metrics.",
		"repro/internal/core.",
		"repro/internal/rwlock.",
		"repro/internal/vmlock.",
		"repro/internal/montable.",
		"repro/internal/backend.",
		"runtime.",
	} {
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}

// siteKeyFor reduces a raw PC stack to the first siteDepth frames outside
// the lock machinery. Frames inside closures passed *to* the lock (the
// section bodies core re-invokes) resolve to their defining package, so a
// site names the code that owns the critical section.
func siteKeyFor(pcs []uintptr) siteKey {
	var key siteKey
	frames := runtime.CallersFrames(pcs)
	i := 0
	for i < siteDepth {
		f, more := frames.Next()
		if f.Function != "" && !internalFrame(f.Function) {
			key[i] = f.PC
			i++
		}
		if !more {
			break
		}
	}
	return key
}

// Site is one resolved abort site, ranked by sampled hit count.
type Site struct {
	// Function/File/Line identify the innermost user frame.
	Function string
	File     string
	Line     int
	// Total is the sampled abort count attributed to the site; multiply by
	// the sampling period for an estimate of real aborts.
	Total uint64
	// Nanos is the sampled cumulative stall time attributed to the site
	// (contention events only; plain aborts carry no dwell).
	Nanos uint64
	// ByCause breaks Total down by taxonomy cause (indexed by AbortCause).
	ByCause [NumAbortCauses]uint64
	// ByCauseNanos breaks Nanos down the same way.
	ByCauseNanos [NumAbortCauses]uint64
}

// TopCause returns the site's dominant abort cause.
func (s *Site) TopCause() AbortCause {
	best := AbortCause(0)
	for c := AbortCause(1); c < NumAbortCauses; c++ {
		if s.ByCause[c] > s.ByCause[best] {
			best = c
		}
	}
	return best
}

// Sites resolves and ranks the sampled abort sites, most-hit first.
// nil-safe: returns nil.
func (r *Registry) Sites() []Site {
	if r == nil {
		return nil
	}
	r.sites.mu.Lock()
	type entry struct {
		key siteKey
		c   siteStats
	}
	entries := make([]entry, 0, len(r.sites.counts))
	for k, c := range r.sites.counts {
		entries = append(entries, entry{key: k, c: *c})
	}
	r.sites.mu.Unlock()

	out := make([]Site, 0, len(entries))
	for _, e := range entries {
		s := Site{ByCause: e.c.counts, ByCauseNanos: e.c.nanos}
		for _, n := range e.c.counts {
			s.Total += n
		}
		for _, n := range e.c.nanos {
			s.Nanos += n
		}
		// Resolve the innermost captured frame.
		var pcs []uintptr
		for _, pc := range e.key {
			if pc != 0 {
				pcs = append(pcs, pc)
			}
		}
		if len(pcs) > 0 {
			f, _ := runtime.CallersFrames(pcs[:1]).Next()
			s.Function, s.File, s.Line = f.Function, f.File, f.Line
		} else {
			s.Function = "(unresolved)"
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Function < out[j].Function
	})
	return out
}

// StackFrame is one resolved frame of a sampled contention stack,
// innermost (leaf) first in ContentionStack.Frames — the order pprof
// expects sample locations in.
type StackFrame struct {
	Function string
	File     string
	Line     int
	PC       uintptr
}

// ContentionStack is one sampled site with its full captured user stack and
// the two profile weights: event count and cumulative stall nanoseconds.
// Counts are sampled; multiply by SiteSamplePeriod for estimates.
type ContentionStack struct {
	Frames       []StackFrame
	Total        uint64
	Nanos        uint64
	ByCause      [NumAbortCauses]uint64
	ByCauseNanos [NumAbortCauses]uint64
}

// ContentionStacks resolves every sampled site's captured frames for the
// pprof exporter, heaviest (by nanos, then count) first. nil-safe: returns
// nil.
func (r *Registry) ContentionStacks() []ContentionStack {
	if r == nil {
		return nil
	}
	r.sites.mu.Lock()
	type entry struct {
		key siteKey
		c   siteStats
	}
	entries := make([]entry, 0, len(r.sites.counts))
	for k, c := range r.sites.counts {
		entries = append(entries, entry{key: k, c: *c})
	}
	r.sites.mu.Unlock()

	out := make([]ContentionStack, 0, len(entries))
	for _, e := range entries {
		s := ContentionStack{ByCause: e.c.counts, ByCauseNanos: e.c.nanos}
		for _, n := range e.c.counts {
			s.Total += n
		}
		for _, n := range e.c.nanos {
			s.Nanos += n
		}
		for _, pc := range e.key {
			if pc == 0 {
				continue
			}
			f, _ := runtime.CallersFrames([]uintptr{pc}).Next()
			s.Frames = append(s.Frames, StackFrame{
				Function: f.Function, File: f.File, Line: f.Line, PC: pc,
			})
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Nanos != out[j].Nanos {
			return out[i].Nanos > out[j].Nanos
		}
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return siteLess(out[i], out[j])
	})
	return out
}

// siteLess breaks ContentionStacks ties deterministically by frame names.
func siteLess(a, b ContentionStack) bool {
	an, bn := "", ""
	if len(a.Frames) > 0 {
		an = a.Frames[0].Function
	}
	if len(b.Frames) > 0 {
		bn = b.Frames[0].Function
	}
	return an < bn
}

// SiteSamplePeriod returns the abort-site sampling period (for scaling
// sampled counts back to estimates). nil-safe.
func (r *Registry) SiteSamplePeriod() uint64 {
	if r == nil {
		return 0
	}
	return r.sitePeriodMask + 1
}
