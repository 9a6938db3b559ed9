// Package checks implements the solerovet analyzer suite: the vet-time
// restatement of the proof obligation the paper's JIT discharges before
// eliding a lock. Seven analyzers share one whole-program context:
//
//	specsafety  — ReadOnly closures must be speculation-safe
//	beforewrite — ReadMostly stores must be dominated by BeforeWrite
//	atomicread  — elided sections must read contended fields atomically
//	elide       — Sync closures that are provably read-only should elide
//	lockorder   — lock acquisition orders must be acyclic (no ABBA deadlocks)
//	guardedby   — every shared field must have a consistent lock guard
//	escape      — guarded references must not leave the section they were read in
package checks

import (
	"fmt"
	"sync"

	"repro/internal/govet/analysis"
	"repro/internal/govet/effects"
	"repro/internal/govet/load"
	"repro/internal/govet/sections"
)

// Context is the program-wide analysis state shared by every pass.
type Context struct {
	Prog     *load.Program
	Effects  *effects.Analysis
	Sections *sections.Index

	// walk is the whole-program held-lock walk, built lazily by the first
	// guardedby or lockorder pass; both read it.
	walkOnce sync.Once
	walk     *gbBuilder

	// lockGraph is the whole-program lock-order graph, built lazily by the
	// first lockorder pass and shared by the rest.
	lockOnce  sync.Once
	lockGraph *lockGraph

	// guardInfo is the whole-program guard inference, built lazily by the
	// first guardedby pass and shared with the facts exporter.
	guardOnce sync.Once
	guardInfo *guardInfo

	// escInfo is the whole-program guarded-reference escape analysis,
	// built lazily by the first escape pass and shared with the facts
	// exporter.
	escOnce sync.Once
	escInfo *escInfo
}

// NewContext computes effect summaries and section sites for a loaded
// program.
func NewContext(prog *load.Program) *Context {
	return &Context{
		Prog:     prog,
		Effects:  effects.Analyze(prog),
		Sections: sections.Discover(prog),
	}
}

// All returns the full suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Specsafety, Beforewrite, Atomicread, Elide, Lockorder, Guardedby, Escape}
}

// ByName resolves a comma-free analyzer name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// passContext unpacks the driver-attached context and the package under
// analysis.
func passContext(pass *analysis.Pass) (*Context, *load.Package, error) {
	ctx, ok := pass.Context.(*Context)
	if !ok {
		return nil, nil, fmt.Errorf("%s: pass has no solerovet context", pass.Analyzer.Name)
	}
	pkg := ctx.Prog.ByPath(pass.Pkg.Path())
	if pkg == nil {
		return nil, nil, fmt.Errorf("%s: package %s not in loaded program", pass.Analyzer.Name, pass.Pkg.Path())
	}
	return ctx, pkg, nil
}

// sectionWalker builds a section-mode walker for a site's closure with
// the enclosing function's local closure bindings attached.
func sectionWalker(ctx *Context, site *sections.Site) *effects.Walker {
	w := effects.NewWalker(ctx.Effects, site.Pkg, site.Lit, effects.SectionMode)
	for v, lit := range site.EnclosingLits {
		if lit != site.Lit {
			w.BindLit(v, lit)
		}
	}
	return w
}
