package facts

import "repro/internal/core"

// ProofOf maps a facts class to the runtime's proof class.
func ProofOf(c Class) core.ProofClass {
	switch c {
	case ClassElidable:
		return core.ProofElidable
	case ClassReadMostly:
		return core.ProofReadMostly
	case ClassWriting:
		return core.ProofWriting
	case ClassAnnotated:
		return core.ProofAnnotated
	}
	return core.ProofNone
}

// SeedRegistry loads every section of a facts file into a runtime section
// registry and returns how many were seeded. Sections already registered
// are re-proved in place. Guard maps and escape summaries ride along so
// verify mode can cross-check a speculating section's fields against
// their static guards and refuse to trust a proof whose section leaks
// guarded references.
func SeedRegistry(reg *core.SectionRegistry, f *File) int {
	n := 0
	for i := range f.Sections {
		s := &f.Sections[i]
		info := reg.Seed(s.ID, ProofOf(s.Class), s.RecoveryFree, s.MaxRetries)
		info.SetGuards(s.ReadGuards, s.WriteGuards)
		info.SetEscapes(s.Escapes)
		n++
	}
	return n
}
