// Package sections discovers SOLERO critical-section sites: every closure
// (or named function) the program hands to a lock entry point, together
// with the protocol mode it will run under. This is the vet-time analogue
// of the JIT knowing which bytecode ranges are synchronized blocks.
//
// Discovery is a fixed point because sections are reached through
// wrappers: `Guard.Read(th, fn)` forwards fn to conv.Sync / rw.ReadSync /
// sol.ReadOnly depending on the configured implementation, and benchmarks
// bind `read := func(t, fn){ ... sol.ReadOnly(t, fn) }` locally. A
// function (or local closure variable) that forwards a func parameter to
// an entry point — or to another wrapper — is itself a wrapper, and its
// call sites are section sites. When one wrapper can reach several modes,
// the strictest wins (ReadOnly > ReadMostly > Sync): a closure that might
// run speculatively must be held to the speculative standard.
package sections

import (
	"go/ast"
	"go/types"

	"repro/internal/govet/effects"
	"repro/internal/govet/load"
)

// Mode is the protocol a section's closure runs under, in ascending
// strictness.
type Mode uint8

const (
	// ModeSync holds the lock: no speculation-safety constraints.
	ModeSync Mode = iota
	// ModeReadMostly runs speculatively until BeforeWrite upgrades.
	ModeReadMostly
	// ModeReadOnly runs speculatively end to end.
	ModeReadOnly
)

// String names the mode as the API spells it.
func (m Mode) String() string {
	switch m {
	case ModeReadOnly:
		return "ReadOnly"
	case ModeReadMostly:
		return "ReadMostly"
	default:
		return "Sync"
	}
}

// Site is one place a closure enters a SOLERO section.
type Site struct {
	Pkg  *load.Package
	Call *ast.CallExpr
	Mode Mode
	// Direct marks calls whose callee is a core entry point itself (not
	// a wrapper); the elide analyzer only rewrites these.
	Direct bool
	// Lit is the closure literal entering the section, when the argument
	// is (or is a local variable bound to) one.
	Lit *ast.FuncLit
	// Named is the function entering the section, when the argument is a
	// named function or method value.
	Named *types.Func
	// Arg is the raw argument expression.
	Arg ast.Expr
	// SectionParam is the *core.Section parameter of a ReadMostly
	// closure literal, if declared.
	SectionParam *types.Var
	// EnclosingLits maps local func-typed variables of the enclosing
	// function to their closure literals, for judging captured-closure
	// calls from inside the section.
	EnclosingLits map[*types.Var]*ast.FuncLit
	// Annotated marks sites carrying a //solerovet:readonly directive
	// (the analogue of the paper's @SoleroReadOnly annotation): the
	// author asserts the closure is read-only.
	Annotated bool
}

// Index is the program-wide section-site table.
type Index struct {
	Prog  *load.Program
	Sites []*Site
}

// PkgSites returns the sites whose call appears in pkg.
func (ix *Index) PkgSites(pkg *load.Package) []*Site {
	var out []*Site
	for _, s := range ix.Sites {
		if s.Pkg == pkg {
			out = append(out, s)
		}
	}
	return out
}

const (
	corePath    = "repro/internal/core"
	soleroPath  = "repro/solero"
	backendPath = "repro/internal/backend"
)

// recvName resolves a method's receiver type name, "" for a function.
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// Discover builds the section index for the loaded program.
func Discover(prog *load.Program) *Index {
	d := &discoverer{
		prog:      prog,
		wrappers:  map[types.Object]map[int]Mode{},
		annotated: map[*types.Func]bool{},
	}
	// Prescan declaration-level //solerovet:readonly directives: a method
	// value passed to an entry point inherits its declaration's assertion.
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !effects.DeclAnnotated(fd) {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					d.annotated[fn.Origin()] = true
				}
			}
		}
	}
	// Fixed point over the wrapper table: each round may discover new
	// wrappers (wrappers of wrappers), which create new forwarding edges.
	for {
		d.changed = false
		d.collect(false)
		if !d.changed {
			break
		}
	}
	d.collect(true)
	return &Index{Prog: prog, Sites: d.sites}
}

type discoverer struct {
	prog      *load.Program
	wrappers  map[types.Object]map[int]Mode
	annotated map[*types.Func]bool // decls carrying //solerovet:readonly
	changed   bool
	final     bool
	sites     []*Site
}

func (d *discoverer) markWrapper(obj types.Object, idx int, mode Mode) {
	m := d.wrappers[obj]
	if m == nil {
		m = map[int]Mode{}
		d.wrappers[obj] = m
	}
	if cur, ok := m[idx]; !ok || mode > cur {
		m[idx] = mode
		d.changed = true
	}
}

// collect walks every function body once. With final set it records
// sites; otherwise it only grows the wrapper table.
func (d *discoverer) collect(final bool) {
	d.final = final
	if final {
		d.sites = nil
	}
	for _, pkg := range d.prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fc := &funcContext{
					d: d, pkg: pkg, file: file,
					fnObj:   pkg.Info.Defs[fd.Name],
					litVars: map[*types.Var]*ast.FuncLit{},
					litOf:   map[*ast.FuncLit]types.Object{},
					params:  map[types.Object]paramRef{},
				}
				fc.indexParams(fc.fnObj, fd.Type)
				fc.walk(fd.Body)
			}
		}
	}
}

type paramRef struct {
	owner types.Object
	index int
}

// funcContext tracks one top-level function's local closure bindings and
// the parameter lists of it and its nested closures.
type funcContext struct {
	d       *discoverer
	pkg     *load.Package
	file    *ast.File
	fnObj   types.Object
	litVars map[*types.Var]*ast.FuncLit
	litOf   map[*ast.FuncLit]types.Object // lit -> variable it is bound to
	params  map[types.Object]paramRef     // param var -> (owning func/var, index)
}

func (fc *funcContext) indexParams(owner types.Object, ft *ast.FuncType) {
	if owner == nil || ft == nil || ft.Params == nil {
		return
	}
	i := 0
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			if v, ok := fc.pkg.Info.Defs[name].(*types.Var); ok {
				fc.params[v] = paramRef{owner: owner, index: i}
			}
			i++
		}
		if len(f.Names) == 0 {
			i++
		}
	}
}

func (fc *funcContext) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit)
					if !ok {
						continue
					}
					obj := fc.pkg.Info.Defs[id]
					if obj == nil {
						obj = fc.pkg.Info.Uses[id]
					}
					if v, ok := obj.(*types.Var); ok {
						fc.litVars[v] = lit
						fc.litOf[lit] = v
						fc.indexParams(v, lit.Type)
					}
				}
			}
		case *ast.CallExpr:
			fc.call(n)
		}
		return true
	})
}

// callee resolves a call to a function object or a func-typed variable.
func (fc *funcContext) callee(call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := fc.pkg.Info.Types[x.X]; ok && !tv.IsType() {
			fun = ast.Unparen(x.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(x.X)
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		return fc.pkg.Info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := fc.pkg.Info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
			return sel.Obj()
		}
		return fc.pkg.Info.Uses[fn.Sel]
	}
	return nil
}

func (fc *funcContext) call(call *ast.CallExpr) {
	obj := fc.callee(call)
	if obj == nil {
		return
	}
	var spec map[int]Mode
	direct := false
	if fn, ok := obj.(*types.Func); ok {
		if e, ok := entryOf(fn.Origin()); ok && e.site {
			spec = map[int]Mode{e.body: e.mode}
			direct = true
		}
	}
	if spec == nil {
		key := obj
		if fn, ok := obj.(*types.Func); ok {
			key = fn.Origin()
		}
		spec = fc.d.wrappers[key]
	}
	for idx, mode := range spec {
		if idx >= len(call.Args) {
			continue
		}
		fc.argSite(call, call.Args[idx], mode, direct)
	}
}

// argSite classifies the closure argument of one entry/wrapper call.
func (fc *funcContext) argSite(call *ast.CallExpr, arg ast.Expr, mode Mode, direct bool) {
	argE := ast.Unparen(arg)
	switch a := argE.(type) {
	case *ast.FuncLit:
		fc.record(call, arg, mode, direct, a, nil)
		return
	case *ast.Ident:
		obj := fc.pkg.Info.Uses[a]
		switch obj := obj.(type) {
		case *types.Var:
			if ref, ok := fc.params[obj]; ok {
				// Forwarding a func parameter: the caller is a wrapper.
				key := ref.owner
				if fn, ok := key.(*types.Func); ok {
					key = fn.Origin()
				}
				fc.d.markWrapper(key, ref.index, mode)
				return
			}
			if lit, ok := fc.litVars[obj]; ok {
				fc.record(call, arg, mode, direct, lit, nil)
				return
			}
		case *types.Func:
			fc.record(call, arg, mode, direct, nil, obj.Origin())
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := fc.pkg.Info.Selections[a]; ok && sel.Kind() == types.MethodVal {
			if m, ok := sel.Obj().(*types.Func); ok {
				fc.record(call, arg, mode, direct, nil, m.Origin())
				return
			}
		}
		if m, ok := fc.pkg.Info.Uses[a.Sel].(*types.Func); ok {
			fc.record(call, arg, mode, direct, nil, m.Origin())
			return
		}
	}
	fc.record(call, arg, mode, direct, nil, nil)
}

func (fc *funcContext) record(call *ast.CallExpr, arg ast.Expr, mode Mode, direct bool, lit *ast.FuncLit, named *types.Func) {
	if !fc.d.final {
		return
	}
	// The runtime's own packages implement the protocol (ReadOnlyValue
	// wraps the caller's closure in one of its own); their internals are
	// machinery, not client sections.
	if fc.pkg.PkgPath == corePath || fc.pkg.PkgPath == soleroPath {
		return
	}
	// In the backend SPI package only the re-wrapping forwarding shims
	// are machinery (a closure re-fitting a caller's closure to the
	// entry-point signature); any other section the package grows is
	// analyzed like client code.
	if fc.pkg.PkgPath == backendPath && forwardingShim(fc.pkg, lit) {
		return
	}
	site := &Site{
		Pkg: fc.pkg, Call: call, Mode: mode, Direct: direct,
		Lit: lit, Named: named, Arg: arg,
		EnclosingLits: fc.litVars,
		Annotated: fc.annotated(call) ||
			(named != nil && fc.d.annotated[named.Origin()]),
	}
	if lit != nil && mode == ModeReadMostly {
		site.SectionParam = sectionParam(fc.pkg, lit)
	}
	fc.d.sites = append(fc.d.sites, site)
}

// forwardingShim reports whether lit merely re-wraps a captured
// func-typed variable to fit an entry-point signature: a
// single-statement body calling a function value declared outside the
// literal (the adapter's parameter holding the caller's closure). The
// backend SPI adapters use exactly this shape —
// `func(sec *core.Section) { fn(sec) }` — and the caller's fn is the
// real section, discovered at the caller through wrapper marking.
func forwardingShim(pkg *load.Package, lit *ast.FuncLit) bool {
	if lit == nil || len(lit.Body.List) != 1 {
		return false
	}
	es, ok := lit.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
		return false
	}
	_, isSig := v.Type().Underlying().(*types.Signature)
	return isSig
}

// sectionParam finds the closure's *core.Section parameter.
func sectionParam(pkg *load.Package, lit *ast.FuncLit) *types.Var {
	return SectionParamOf(pkg, lit.Type)
}

// SectionParamOf finds the *core.Section parameter declared by a function
// type, or nil.
func SectionParamOf(pkg *load.Package, ft *ast.FuncType) *types.Var {
	if ft == nil || ft.Params == nil {
		return nil
	}
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			v, ok := pkg.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if isSectionPtr(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// IsSectionMethod reports whether fn is the named method on core.Section.
func IsSectionMethod(fn *types.Func, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == corePath &&
		recvName(fn) == "Section" && fn.Name() == name
}

func isSectionPtr(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := types.Unalias(p.Elem()).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == corePath && n.Obj().Name() == "Section"
}

// annotated reports a //solerovet:readonly directive on the call's line
// or the line above it.
func (fc *funcContext) annotated(call *ast.CallExpr) bool {
	fset := fc.d.prog.Fset
	line := fset.Position(call.Pos()).Line
	for _, cg := range fc.file.Comments {
		for _, c := range cg.List {
			if c.Text != "//solerovet:readonly" {
				continue
			}
			cl := fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}
