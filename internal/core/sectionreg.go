package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jthread"
	"repro/internal/metrics"
)

// ProofClass is the static verdict a section carries into the runtime —
// the core-side mirror of the solerovet facts classes (see
// internal/govet/facts). The paper's runtime trusts the JIT's one-time
// classification forever (§3.2); a ProofClass is that classification made
// explicit and portable.
type ProofClass uint8

// Proof classes.
const (
	// ProofNone: no static verdict. The section pays the dynamic
	// classification arm — a probe window of instrumented speculative
	// executions — before the runtime settles on a plan.
	ProofNone ProofClass = iota
	// ProofElidable: statically proven read-only. Speculate immediately;
	// no probe window, no dynamic classification.
	ProofElidable
	// ProofReadMostly: proven to write only on guarded paths. The plain
	// ReadOnly entry cannot run the §5 upgrade protocol, so it treats the
	// section as writing.
	ProofReadMostly
	// ProofWriting: proven to write shared state. Full lock protocol.
	ProofWriting
	// ProofAnnotated: author-asserted read-only (//solerovet:readonly /
	// @SoleroReadOnly). Speculates like ProofElidable but never on the
	// recovery-free lean path — an assertion is not a fault-freedom proof.
	ProofAnnotated
)

// String names the proof class.
func (p ProofClass) String() string {
	switch p {
	case ProofElidable:
		return "elidable"
	case ProofReadMostly:
		return "read-mostly"
	case ProofWriting:
		return "writing"
	case ProofAnnotated:
		return "annotated"
	default:
		return "none"
	}
}

// Dynamic classification states of a SectionInfo (the ProofNone arm and
// the trust-but-verify probes share the machinery).
const (
	sectionProbing uint32 = iota
	sectionTrusted
	sectionWriting
)

// SectionInfo is one critical section's identity and proof in a
// SectionRegistry, plus the runtime state of its dynamic classification.
// Obtain via (*SectionRegistry).Seed or Section; the same *SectionInfo is
// passed to every execution of the section.
type SectionInfo struct {
	// ID is the stable section identity (the facts-file id).
	ID string
	// Proof is the carried static verdict.
	Proof ProofClass
	// RecoveryFree marks ProofElidable sections additionally proven unable
	// to fault or loop under inconsistent reads: they speculate on the
	// lean path (no speculative frame, no panic handler).
	RecoveryFree bool
	// MaxRetries overrides Config.MaxElisionFailures for this section
	// when positive (the facts file's static retry bound).
	MaxRetries int

	reg      *SectionRegistry
	state    atomic.Uint32
	probes   atomic.Uint32
	failed   atomic.Bool
	diverged atomic.Bool

	// readGuards/writeGuards are the facts file's field→guard maps
	// (solero-facts/v3): each field the section reads or writes, keyed by
	// display name, mapped to the static identity of the lock that guards
	// it. Set once via SetGuards before the section runs; read-only after.
	readGuards  map[string]string
	writeGuards map[string]string
	guardDiv    atomic.Bool

	// escapes is the facts file's escaping-reference summary
	// (solero-facts/v3): display names of guarded references the static
	// pass saw leave the section. A clean build carries none, so a
	// non-empty list on a speculating proof means the facts describe
	// different source than the running binary. Set once via SetEscapes
	// before the section runs; read-only after.
	escapes   []string
	escapeDiv atomic.Bool
}

// retries resolves the section's elision failure bound.
func (s *SectionInfo) retries(cfg *Config) int {
	if s.MaxRetries > 0 {
		return s.MaxRetries
	}
	return cfg.MaxElisionFailures
}

// Diverged reports whether trust-but-verify latched a divergence for this
// section.
func (s *SectionInfo) Diverged() bool { return s.diverged.Load() }

// SetGuards attaches the section's static field→guard maps (from a
// facts file's v2 readGuards/writeGuards). Call before the section runs;
// the maps are not copied and must not be mutated afterwards.
func (s *SectionInfo) SetGuards(read, write map[string]string) {
	s.readGuards = read
	s.writeGuards = write
}

// GuardDiverged reports whether verify mode latched a guard divergence
// for this section: it ran under a lock that is not the static guard of
// a field it touches.
func (s *SectionInfo) GuardDiverged() bool { return s.guardDiv.Load() }

// SetEscapes attaches the section's static escaping-reference summary
// (from a facts file's v3 escapes list). Call before the section runs;
// the slice is not copied and must not be mutated afterwards.
func (s *SectionInfo) SetEscapes(escapes []string) {
	s.escapes = escapes
}

// EscapeDiverged reports whether verify mode latched an escape
// divergence for this section: its proof would speculate, but the facts
// say guarded references leave the section body.
func (s *SectionInfo) EscapeDiverged() bool { return s.escapeDiv.Load() }

// SectionRegistry keys critical sections by proof class so statically
// proven sections skip the runtime's never-attempted classification arm
// entirely. Unproven (ProofNone) sections pay a probe window: their first
// few executions run instrumented — each counted as one dynamic
// classification — and the window's outcome (every probe a successful
// speculation, or not) settles the section's plan. Proven sections never
// touch that machinery, which is the property BenchmarkReadOnly asserts:
// zero dynamic classifications when facts are preloaded.
//
// With verify set, the registry runs trust-but-verify: sections whose fact
// says writing are probed through the same window anyway, and if the
// dynamic classifier concludes read-only the disagreement is latched once
// per section and counted (Divergences, metrics' fact_divergences family).
// Verify mode is a canary for stale or hand-edited facts files — probing a
// proof-writing section speculates code the proof says writes, so enable
// it only in testbeds (its natural habitat: the facts round-trip tests),
// not production.
type SectionRegistry struct {
	verify bool
	window uint32
	m      *metrics.Registry

	mu       sync.Mutex
	sections map[string]*SectionInfo

	dynClass          atomic.Uint64
	divergences       atomic.Uint64
	guardDivergences  atomic.Uint64
	escapeDivergences atomic.Uint64
}

// DefaultProbeWindow is the default dynamic-classification window: how
// many instrumented executions an unproven section pays before the runtime
// settles its plan.
const DefaultProbeWindow = 8

// NewSectionRegistry creates a registry. window <= 0 selects
// DefaultProbeWindow; m may be nil (divergences still count locally).
func NewSectionRegistry(verify bool, window int, m *metrics.Registry) *SectionRegistry {
	if window <= 0 {
		window = DefaultProbeWindow
	}
	return &SectionRegistry{
		verify:   verify,
		window:   uint32(window),
		m:        m,
		sections: map[string]*SectionInfo{},
	}
}

// Seed registers (or re-proves) a section under a static verdict, as
// loaded from a facts file.
func (r *SectionRegistry) Seed(id string, proof ProofClass, recoveryFree bool, maxRetries int) *SectionInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sections[id]
	if s == nil {
		s = &SectionInfo{ID: id, reg: r}
		r.sections[id] = s
	}
	s.Proof = proof
	s.RecoveryFree = recoveryFree
	s.MaxRetries = maxRetries
	return s
}

// Section returns the registered section for id, creating an unproven
// (ProofNone) one on first use.
func (r *SectionRegistry) Section(id string) *SectionInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sections[id]
	if s == nil {
		s = &SectionInfo{ID: id, reg: r}
		r.sections[id] = s
	}
	return s
}

// Len returns the number of registered sections.
func (r *SectionRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sections)
}

// DynamicClassifications returns how many section executions ran as
// dynamic classification probes — zero when every executed section carried
// a proof.
func (r *SectionRegistry) DynamicClassifications() uint64 { return r.dynClass.Load() }

// Divergences returns how many sections trust-but-verify caught carrying a
// wrong proof (latched once per section).
func (r *SectionRegistry) Divergences() uint64 { return r.divergences.Load() }

// GuardDivergences returns how many sections verify mode caught running
// under a lock that is not the static guard of a field they touch
// (latched once per section).
func (r *SectionRegistry) GuardDivergences() uint64 { return r.guardDivergences.Load() }

// EscapeDivergences returns how many sections verify mode caught
// speculating on a proof whose facts carry a non-empty escape summary
// (latched once per section).
func (r *SectionRegistry) EscapeDivergences() uint64 { return r.escapeDivergences.Load() }

// ReadOnlySection runs fn as a read-only critical section under a
// proof-carrying section identity. A nil info degenerates to ReadOnly.
// Dispatch by proof class:
//
//   - ProofElidable: speculate immediately with the section's static retry
//     bound; recovery-free sections take the lean path.
//   - ProofAnnotated: speculate immediately, full recovery machinery.
//   - ProofWriting / ProofReadMostly: full lock protocol (under verify,
//     after a trust-but-verify probe window first).
//   - ProofNone: the dynamic classification arm — an instrumented probe
//     window whose outcome settles the plan.
func (l *Lock) ReadOnlySection(t *jthread.Thread, info *SectionInfo, fn func()) {
	if info == nil {
		l.ReadOnly(t, fn)
		return
	}
	if m := l.cfg.Metrics; m != nil && t.SampleTick(m.CSSampleMask()) {
		start := time.Now()
		defer m.EndCS(t.StripeIndex(), start)
	}
	if info.reg != nil && info.reg.verify {
		l.verifyGuards(t, info)
		l.verifyEscapes(t, info)
	}
	if l.cfg.DisableElision {
		l.Sync(t, fn)
		return
	}
	switch info.Proof {
	case ProofElidable, ProofAnnotated:
		if l.adaptiveSkip() {
			l.Sync(t, fn)
			return
		}
		l.readOnlyImpl(t, fn, info.retries(l.cfg), info.Proof == ProofElidable && info.RecoveryFree)
	case ProofWriting, ProofReadMostly:
		if info.Proof == ProofWriting && info.reg != nil && info.reg.verify &&
			info.state.Load() == sectionProbing {
			l.verifyProbe(t, info, fn)
			return
		}
		l.Sync(t, fn)
	default:
		l.dynamicSection(t, info, fn)
	}
}

// dynamicSection is the never-attempted classification arm: probe the
// section speculatively for a window of executions, then settle.
func (l *Lock) dynamicSection(t *jthread.Thread, info *SectionInfo, fn func()) {
	switch info.state.Load() {
	case sectionTrusted:
		if l.adaptiveSkip() {
			l.Sync(t, fn)
			return
		}
		l.readOnlyImpl(t, fn, l.cfg.MaxElisionFailures, false)
		return
	case sectionWriting:
		l.Sync(t, fn)
		return
	}
	if info.reg == nil {
		l.ReadOnly(t, fn)
		return
	}
	info.reg.dynClass.Add(1)
	if !l.readOnlyImpl(t, fn, l.cfg.MaxElisionFailures, false) {
		info.failed.Store(true)
	}
	if info.probes.Add(1) >= info.reg.window {
		if info.failed.Load() {
			info.state.Store(sectionWriting)
		} else {
			info.state.Store(sectionTrusted)
		}
	}
}

// verifyGuards cross-checks the section's static field→guard maps
// against the lock it actually runs under: if this lock carries a static
// identity and any field the section touches is guarded by a *different*
// lock, the facts and the code disagree — speculating here validates
// against the wrong lock word, so reads of that field are unprotected.
// The divergence is latched once per section and counted (both locally
// and in metrics' fact_divergences family). Locks without a static
// identity (SetStaticID never called) skip the check: an unnamed lock
// cannot be told apart from the guard.
func (l *Lock) verifyGuards(t *jthread.Thread, info *SectionInfo) {
	if l.staticID == "" || info.guardDiv.Load() {
		return
	}
	mismatch := false
	for _, guard := range info.readGuards {
		if guard != "" && guard != l.staticID {
			mismatch = true
			break
		}
	}
	if !mismatch {
		for _, guard := range info.writeGuards {
			if guard != "" && guard != l.staticID {
				mismatch = true
				break
			}
		}
	}
	if mismatch && info.guardDiv.CompareAndSwap(false, true) {
		info.reg.guardDivergences.Add(1)
		info.reg.m.RecordFactDivergence(t.StripeIndex())
	}
}

// verifyEscapes cross-checks the section's static escape summary
// against its proof: a clean `solerovet` run never writes a non-empty
// escapes list (the escape analyzer gates the build), so a speculating
// proof (elidable or annotated) that still carries one means the facts
// file was produced against different source — or hand-edited — and the
// containment property the seqlock validation window depends on is not
// established for this binary. The divergence is latched once per
// section and counted (both locally and in metrics' fact_divergences
// family); the section still runs its proof's plan — the counter is the
// alarm, matching verifyProbe.
func (l *Lock) verifyEscapes(t *jthread.Thread, info *SectionInfo) {
	if len(info.escapes) == 0 || info.escapeDiv.Load() {
		return
	}
	switch info.Proof {
	case ProofElidable, ProofAnnotated:
		if info.escapeDiv.CompareAndSwap(false, true) {
			info.reg.escapeDivergences.Add(1)
			info.reg.m.RecordFactDivergence(t.StripeIndex())
		}
	}
}

// verifyProbe is trust-but-verify for a proof-writing section: run the
// same dynamic classification window the unproven arm uses; if every probe
// completes as a successful speculation the dynamic classifier says
// read-only, contradicting the fact — latch the divergence once. The
// section then settles on its proof's plan regardless (facts win; the
// counter is the alarm). Divergence detection is deliberately one-sided —
// proof-says-writing, dynamics-say-read-only — because that direction is
// deterministic single-threaded, while the converse (a proven-elidable
// section failing probes) is routinely caused by benign contention.
func (l *Lock) verifyProbe(t *jthread.Thread, info *SectionInfo, fn func()) {
	info.reg.dynClass.Add(1)
	if !l.readOnlyImpl(t, fn, l.cfg.MaxElisionFailures, false) {
		info.failed.Store(true)
	}
	if info.probes.Add(1) >= info.reg.window {
		if !info.failed.Load() && info.diverged.CompareAndSwap(false, true) {
			info.reg.divergences.Add(1)
			info.reg.m.RecordFactDivergence(t.StripeIndex())
		}
		info.state.Store(sectionWriting)
	}
}
