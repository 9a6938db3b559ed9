// Package facts is the proof-carrying side of the solerovet suite: it
// serializes the per-section verdicts the analyzers compute (elidable /
// read-mostly / writing, recovery-free or not, retry bounds, written-field
// sets, the guardedby analyzer's per-section field→guard maps, and the
// escape analyzer's per-section escaping-reference summaries) into a
// stable JSON interchange file, the `solero-facts/v3` schema.
//
// The paper's JIT classifies a synchronized block once, at compile time,
// and the runtime then trusts that classification forever (§3.2). PR 3
// rebuilt the classification as a vet suite but threw the proofs away
// after printing diagnostics; this package closes the loop. A facts file
// written by `solerovet -facts` can be
//
//   - loaded by internal/jit (`solerojit -facts`), which pre-seeds the
//     bytecode classifier and skips re-analysis for proven sections, and
//   - seeded into an internal/core SectionRegistry, where proven sections
//     skip the runtime's never-attempted classification arm and
//     recovery-free sections run a speculation path with no panic/recover
//     machinery at all.
//
// Stability contract: Encode output is deterministic for a given program
// (sections sorted by ID, no timestamps, file positions relative to the
// package), so facts files are golden-testable and diffable.
package facts

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Schema identifies the interchange format Encode writes and the only
// one Decode accepts: a document of an older schema lacks guard maps or
// escape summaries, so it must be regenerated with `solerovet -facts`.
const Schema = "solero-facts/v3"

// Class is a section's proof class — the static verdict carried to the
// JIT and the runtime.
type Class string

// Proof classes.
const (
	// ClassWriting sections were proven to write shared state: the full
	// lock protocol, never speculation.
	ClassWriting Class = "writing"
	// ClassElidable sections were proven read-only: elide the lock.
	ClassElidable Class = "elidable"
	// ClassReadMostly sections write only on guarded paths: §5 upgrade
	// protocol.
	ClassReadMostly Class = "read-mostly"
	// ClassAnnotated sections carry an author assertion
	// (//solerovet:readonly, the @SoleroReadOnly analogue): elidable on
	// trust rather than proof.
	ClassAnnotated Class = "annotated"
)

// Valid reports whether c is a known proof class.
func (c Class) Valid() bool {
	switch c {
	case ClassWriting, ClassElidable, ClassReadMostly, ClassAnnotated:
		return true
	}
	return false
}

// Section is the serialized verdict for one critical section.
type Section struct {
	// ID is the stable section identity: "pkgpath:file.go:line:col" for Go
	// sections, "mj:Class.method#idx" for mini-Java blocks.
	ID string `json:"id"`
	// Pkg is the defining package path ("mj" for mini-Java programs).
	Pkg string `json:"pkg"`
	// Func names the enclosing function ("Recv.Method" or "Func").
	Func string `json:"func"`
	// Mode is the entry point the section runs under at the call site
	// (Sync, ReadOnly, ReadMostly).
	Mode string `json:"mode"`
	// Class is the proof class.
	Class Class `json:"class"`
	// Annotated marks author-asserted (directive/annotation) verdicts.
	Annotated bool `json:"annotated,omitempty"`
	// RecoveryFree marks elidable sections proven unable to fault or loop
	// under inconsistent speculative reads: no indexing, no division, no
	// calls, no loops. The runtime may run them without the panic/recover
	// wrapper and without a speculative frame.
	RecoveryFree bool `json:"recoveryFree,omitempty"`
	// MaxRetries is the static retry bound the runtime should use before
	// falling back to real acquisition (0 means the config default).
	MaxRetries int `json:"maxRetries,omitempty"`
	// WrittenFields lists "Type.field" names the section may store to
	// (read-mostly and writing sections), sorted.
	WrittenFields []string `json:"writtenFields,omitempty"`
	// JitKey, when the section corresponds to a mini-Java synchronized
	// block of the corpus, is "Class.method#syncIndex" — the key
	// internal/jit/analysis pre-seeds its classifier with.
	JitKey string `json:"jitKey,omitempty"`
	// ReadGuards / WriteGuards map each guarded field the section reads /
	// writes ("Type.field") to the lock the guardedby analyzer determined
	// protects it ("Type.mu" or "pkgpath.name"). The runtime's verify mode
	// cross-checks these against the lock the section actually runs under
	// and latches a divergence on mismatch.
	ReadGuards  map[string]string `json:"readGuards,omitempty"`
	WriteGuards map[string]string `json:"writeGuards,omitempty"`
	// Escapes lists the display expressions of guarded references the
	// escape analyzer saw leave the section ("Type.field"), sorted.
	// A clean tree has none — the analyzer gates the build — so a
	// non-empty list on an elidable/annotated section means the facts
	// were produced against different source than the binary runs:
	// verify mode latches that as a divergence rather than speculating
	// on a proof the section no longer satisfies.
	Escapes []string `json:"escapes,omitempty"`
}

// File is one facts document.
type File struct {
	Schema string `json:"schema"`
	// Module names the analyzed module (or corpus).
	Module   string    `json:"module"`
	Sections []Section `json:"sections"`
}

// Sort orders sections by ID (then JitKey) for deterministic output.
func (f *File) Sort() {
	sort.Slice(f.Sections, func(i, j int) bool {
		a, b := &f.Sections[i], &f.Sections[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.JitKey < b.JitKey
	})
}

// ByJitKey indexes the sections that carry a JIT key.
func (f *File) ByJitKey() map[string]*Section {
	out := map[string]*Section{}
	for i := range f.Sections {
		if k := f.Sections[i].JitKey; k != "" {
			out[k] = &f.Sections[i]
		}
	}
	return out
}

// ByID indexes all sections by ID.
func (f *File) ByID() map[string]*Section {
	out := map[string]*Section{}
	for i := range f.Sections {
		out[f.Sections[i].ID] = &f.Sections[i]
	}
	return out
}

// Encode renders f deterministically: sorted sections, two-space indent,
// trailing newline.
func Encode(f *File) ([]byte, error) {
	f.Schema = Schema
	f.Sort()
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses and validates a facts document.
func Decode(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("facts: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("facts: schema %q, want %q", f.Schema, Schema)
	}
	for i := range f.Sections {
		s := &f.Sections[i]
		if s.ID == "" {
			return nil, fmt.Errorf("facts: section %d has no id", i)
		}
		if !s.Class.Valid() {
			return nil, fmt.Errorf("facts: section %s has unknown class %q", s.ID, s.Class)
		}
	}
	return &f, nil
}
