package checks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"repro/internal/govet/analysis"
	"repro/internal/govet/load"
	"repro/internal/govet/sections"
)

// Guardedby is the lockset race analyzer: the Eraser discipline restated
// statically over SOLERO locks. For every shared struct field and
// package-level variable it collects the set of core.Lock identities held
// at each access site — walking every function body once with a held-set
// interpreter that carries read-vs-write hold modes (a ReadOnly section,
// or a core.ReadOnlyValue/solero.ReadOnly value form, holds its lock only
// for speculative reading) and an interprocedural held-set context (the
// intersection of the locksets callers hold around each call) — and
// intersects across sites. Which call enters which lock comes from the
// sections package's lock-call table. The same walk records the
// acquisitions, waits and calls lockorder builds its graph from. A
// consistent nonempty intersection is the field's inferred guard;
// inconsistencies become diagnostics:
//
//   - "unguarded shared access": a site holds no lock while other sites
//     guard the same field,
//   - "guard confusion": two sites hold disjoint locksets — no common
//     lock protects every access,
//   - a write performed while the guard is held only in read mode — the
//     check-then-act shape a read-only section cannot make atomic.
//
// Fields may declare their guard with //solerovet:guardedby(<lock>) on
// (or directly above) the declaration; declared guards are enforced
// rather than inferred, and `solerovet -fix` inserts the directive for
// confidently inferred guards at reported fields.
var Guardedby = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "infer which core.Lock guards each shared field/global by intersecting held " +
		"locksets across all access sites, and report unguarded accesses, guard " +
		"confusion, and writes performed under read-only holds",
	Run: runGuardedby,
}

// ---- locksets ----

// gbHeld is one entry of a lockset: a lock identity and whether it is
// held for writing (Lock/Sync/ReadMostly) or only for speculative
// reading (ReadOnly/ReadOnlySection).
type gbHeld struct {
	id    string
	write bool
}

// gbLockset is a set of held locks. top marks an unknowable set — an
// unidentifiable lock (or wrapper section) is held, so the true set is a
// superset the analysis cannot name. Top sites neither constrain guard
// inference nor support reporting.
type gbLockset struct {
	top   bool
	locks map[string]bool // id -> held for writing
}

func gbTop() gbLockset   { return gbLockset{top: true} }
func gbEmpty() gbLockset { return gbLockset{} }

func (s gbLockset) empty() bool { return !s.top && len(s.locks) == 0 }

func (s gbLockset) has(id string) bool { _, ok := s.locks[id]; return ok }

// union joins two locksets (a call site's local held set with its
// caller context): top absorbs, and a lock write-held on either side is
// write-held in the union.
func (s gbLockset) union(o gbLockset) gbLockset {
	if s.top || o.top {
		return gbTop()
	}
	if len(o.locks) == 0 {
		return s
	}
	out := gbLockset{locks: map[string]bool{}}
	for id, w := range s.locks {
		out.locks[id] = w
	}
	for id, w := range o.locks {
		out.locks[id] = out.locks[id] || w
	}
	return out
}

// intersect meets two locksets (across a function's call sites): top is
// the identity, and a lock is write-held only if every side write-holds
// it.
func (s gbLockset) intersect(o gbLockset) gbLockset {
	if s.top {
		return o
	}
	if o.top {
		return s
	}
	out := gbLockset{locks: map[string]bool{}}
	for id, w := range s.locks {
		if ow, ok := o.locks[id]; ok {
			out.locks[id] = w && ow
		}
	}
	return out
}

func (s gbLockset) equal(o gbLockset) bool {
	if s.top != o.top || len(s.locks) != len(o.locks) {
		return false
	}
	for id, w := range s.locks {
		if ow, ok := o.locks[id]; !ok || ow != w {
			return false
		}
	}
	return true
}

// ids returns the sorted lock identities of the set.
func (s gbLockset) ids() []string {
	out := make([]string, 0, len(s.locks))
	for id := range s.locks {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ---- recorded program facts ----

// gbAccess is one access to a shared identity.
type gbAccess struct {
	id      string
	write   bool
	held    gbLockset // locally held set at the access
	fn      *types.Func
	rooted  bool // inside a go statement: no caller context applies
	pos     token.Pos
	end     token.Pos
	pkgPath string
}

// gbCall is one static call edge with the caller's held set at the site.
type gbCall struct {
	caller *types.Func
	callee *types.Func
	held   gbLockset
	rooted bool
}

// gbEventKind classifies a lock-order event.
type gbEventKind uint8

const (
	gbAcquire gbEventKind = iota // Lock or a section entry acquires lock
	gbWait                       // Wait/WaitTimeout parks on lock
	gbCallTo                     // a call to callee, which may acquire more
)

// gbEvent is one lock-order event of the walk, kept in walk order with
// the identified locks held at it — even when an unnamed lock makes the
// guard lockset ⊤. Lockorder builds its graph from these.
type gbEvent struct {
	kind     gbEventKind
	fn       *types.Func
	lock     string      // acquired or waited-on identity, "" when unnamed
	callee   *types.Func // gbCallTo only
	held     []string    // distinct identified held locks, outermost first
	rooted   bool
	pos, end token.Pos
	pkgPath  string
}

// gbDecl is a shared identity's declaration site (for directives and the
// -fix insertion point).
type gbDecl struct {
	id      string
	pos     token.Pos
	pkgPath string
	guard   string // //solerovet:guardedby payload, "" when undeclared
}

// gbFinding is one rendered diagnostic, attributed to a package.
type gbFinding struct {
	pos, end token.Pos
	pkgPath  string
	message  string
	fixes    []analysis.SuggestedFix
}

// guardInfo is the whole-program result, built once per Context.
type guardInfo struct {
	findings []gbFinding
	// guards maps identity -> guard identity (or declared name when no
	// lock identity matched), "" when no consistent guard exists.
	guards map[string]string
	// siteReads/siteWrites carry per-section field->guard maps (display
	// form) for the facts exporter.
	siteReads  map[*sections.Site]map[string]string
	siteWrites map[*sections.Site]map[string]string
}

// guardAnalysis builds (once) and returns the program's guard inference.
func (ctx *Context) guardAnalysis() *guardInfo {
	ctx.guardOnce.Do(func() {
		ctx.guardInfo = buildGuardInfo(ctx)
	})
	return ctx.guardInfo
}

// SectionGuards returns the guard maps for the fields a section site
// reads and writes (display form), for the facts v2 exporter. Only
// fields with a consistent guard appear.
func (ctx *Context) SectionGuards(site *sections.Site) (reads, writes map[string]string) {
	g := ctx.guardAnalysis()
	return g.siteReads[site], g.siteWrites[site]
}

// ---- the held-set walker ----

// gbBuilder accumulates the whole-program access, call-edge and
// lock-order event tables.
type gbBuilder struct {
	ctx      *Context
	accesses []*gbAccess
	calls    []*gbCall
	events   []*gbEvent
	litSites map[*ast.FuncLit]*sections.Site
}

// gbWalker walks one function body, tracking held locks with modes.
type gbWalker struct {
	b       *gbBuilder
	pkg     *load.Package
	fn      *types.Func
	held    []gbHeld
	unknown int // unidentifiable locks held: accesses are top
	rooted  bool
	fresh   map[*types.Var]bool
}

// gbState snapshots the branch-scoped walker state.
type gbState struct {
	held    []gbHeld
	unknown int
	rooted  bool
}

func (w *gbWalker) save() gbState {
	return gbState{held: append([]gbHeld(nil), w.held...), unknown: w.unknown, rooted: w.rooted}
}

func (w *gbWalker) restore(s gbState) {
	w.held, w.unknown, w.rooted = s.held, s.unknown, s.rooted
}

func (w *gbWalker) lockset() gbLockset {
	if w.unknown > 0 {
		return gbTop()
	}
	if len(w.held) == 0 {
		return gbEmpty()
	}
	out := gbLockset{locks: map[string]bool{}}
	for _, h := range w.held {
		out.locks[h.id] = out.locks[h.id] || h.write
	}
	return out
}

func (w *gbWalker) push(id string, write bool) {
	if id == "" {
		w.unknown++
		return
	}
	w.held = append(w.held, gbHeld{id: id, write: write})
}

func (w *gbWalker) pop(id string) {
	if id == "" {
		if w.unknown > 0 {
			w.unknown--
		}
		return
	}
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].id == id {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// heldIDs returns the distinct identified locks held, outermost first.
func (w *gbWalker) heldIDs() []string {
	var out []string
	for _, h := range w.held {
		if !slices.Contains(out, h.id) {
			out = append(out, h.id)
		}
	}
	return out
}

// event records one lock-order event at call.
func (w *gbWalker) event(kind gbEventKind, lock string, callee *types.Func, call *ast.CallExpr) {
	w.b.events = append(w.b.events, &gbEvent{
		kind: kind, fn: w.fn, lock: lock, callee: callee, held: w.heldIDs(),
		rooted: w.rooted, pos: call.Pos(), end: call.End(), pkgPath: w.pkg.PkgPath,
	})
}

// callTo records a static call edge to fn at call, with the held set.
func (w *gbWalker) callTo(fn *types.Func, call *ast.CallExpr) {
	w.b.calls = append(w.b.calls, &gbCall{caller: w.fn, callee: fn, held: w.lockset(), rooted: w.rooted})
	w.event(gbCallTo, "", fn, call)
}

// record notes one access to a resolvable shared identity.
func (w *gbWalker) record(e ast.Expr, write bool) {
	id, base := dataIdent(w.pkg, e)
	if id == "" || (base != nil && w.fresh[base]) {
		return
	}
	if guardSkipType(accessType(w.pkg, e)) {
		return
	}
	w.b.accesses = append(w.b.accesses, &gbAccess{
		id: id, write: write, held: w.lockset(), fn: w.fn, rooted: w.rooted,
		pos: e.Pos(), end: e.End(), pkgPath: w.pkg.PkgPath,
	})
}

// dataIdent derives the stable identity of a data access, mirroring
// lockIdent's scheme ("G:pkgpath.name" globals, "F:Type.field" fields,
// index expressions collapsed to their container), plus the local base
// variable of the chain for freshness filtering.
func dataIdent(pkg *load.Package, e ast.Expr) (string, *types.Var) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := pkg.Info.Uses[x].(*types.Var)
		if !ok {
			return "", nil
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "G:" + v.Pkg().Path() + "." + v.Name(), nil
		}
		return "", v
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			f, _ := sel.Obj().(*types.Var)
			if f == nil {
				return "", nil
			}
			owner := namedOf(sel.Recv())
			if owner == "" {
				return "", nil
			}
			_, base := dataIdent(pkg, x.X)
			return "F:" + owner + "." + f.Name(), base
		}
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "G:" + v.Pkg().Path() + "." + v.Name(), nil
		}
		return "", nil
	case *ast.IndexExpr:
		return dataIdent(pkg, x.X)
	case *ast.StarExpr:
		return dataIdent(pkg, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return dataIdent(pkg, x.X)
		}
	}
	return "", nil
}

// accessType resolves the static type of the accessed expression.
func accessType(pkg *load.Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// guardSkipType excludes identities that are synchronization state, not
// data: locks themselves and sync/atomic cells have their own protocols.
func guardSkipType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	case "repro/internal/core":
		return obj.Name() == "Lock"
	}
	return false
}

// freshExpr reports whether the right-hand side provably allocates: a
// composite literal, its address, new/make, or a copy of an
// already-fresh local. Accesses through fresh locals are
// construction-time and carry no guard obligation.
func (w *gbWalker) freshExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return w.freshExpr(x.X)
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				return id.Name == "new" || id.Name == "make"
			}
		}
	case *ast.Ident:
		if v, ok := w.pkg.Info.Uses[x].(*types.Var); ok {
			return w.fresh[v]
		}
	}
	return false
}

func (w *gbWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *gbWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		// Track freshness of plain-local bindings before recording the
		// writes, so `tb := &table{...}; tb.n = 1` stays silent.
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := w.pkg.Info.Defs[id]
				if obj == nil {
					obj = w.pkg.Info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok && !isPkgLevel(v) {
					w.fresh[v] = w.freshExpr(s.Rhs[i])
				}
			}
		}
		for _, e := range s.Lhs {
			w.write(e)
		}
	case *ast.IncDecStmt:
		w.write(s.X)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		saved := w.save()
		w.stmt(s.Body)
		w.restore(saved)
		w.stmt(s.Else)
		w.restore(saved)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		saved := w.save()
		w.stmt(s.Body)
		w.stmt(s.Post)
		w.restore(saved)
	case *ast.RangeStmt:
		w.expr(s.X)
		if s.Tok == token.ASSIGN {
			w.write(s.Key)
			w.write(s.Value)
		}
		saved := w.save()
		w.stmt(s.Body)
		w.restore(saved)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		saved := w.save()
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				w.stmts(cc.Body)
				w.restore(saved)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		saved := w.save()
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
				w.restore(saved)
			}
		}
	case *ast.SelectStmt:
		saved := w.save()
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmt(cc.Comm)
				w.stmts(cc.Body)
				w.restore(saved)
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the walk
		// (deferred semantics). Other deferred calls run with the held
		// set of function exit; the current set is the best approximation.
		if lc, ok := sections.LockCallOf(w.pkg, s.Call); ok && lc.Op == sections.OpUnlock {
			return
		}
		w.expr(s.Call)
	case *ast.GoStmt:
		// A goroutine starts with no locks and inherits no caller
		// context.
		saved := w.save()
		w.held, w.unknown, w.rooted = nil, 0, true
		w.expr(s.Call)
		w.restore(saved)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// write records a store to the outermost identity of the target chain
// and walks the chain's computed sub-expressions (indices, embedded
// calls) as reads.
func (w *gbWalker) write(e ast.Expr) {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	w.record(e, true)
	w.chainExtras(e)
}

// chainExtras walks the non-identity parts of an access chain: index
// expressions and any non-chain node (a call producing the base).
func (w *gbWalker) chainExtras(e ast.Expr) {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			w.expr(x.Index)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				w.expr(x.X)
				return
			}
			e = x.X
		case *ast.Ident:
			return
		default:
			w.expr(e)
			return
		}
	}
}

func (w *gbWalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.record(e, false)
		w.expr(e.X)
	case *ast.Ident:
		w.record(e, false)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	case *ast.FuncLit:
		// A wrapper-discovered section literal runs under a lock the
		// walker cannot name: its accesses are top, never reportable.
		saved := w.save()
		if _, ok := w.b.litSites[e]; ok {
			w.unknown++
		}
		w.stmts(e.Body.List)
		w.restore(saved)
	}
}

func (w *gbWalker) call(call *ast.CallExpr) {
	lc, isLock := sections.LockCallOf(w.pkg, call)
	for _, a := range call.Args {
		if isLock && a == lc.Body {
			continue
		}
		w.expr(a)
	}
	if fun, ok := call.Fun.(*ast.SelectorExpr); ok {
		w.expr(fun.X)
	}
	if !isLock {
		if fn := sections.FuncOf(w.pkg, call.Fun); fn != nil {
			w.callTo(fn, call)
		}
		return
	}

	id := lockIdent(w.pkg, lc.Lock)
	switch lc.Op {
	case sections.OpLock:
		w.event(gbAcquire, id, nil, call)
		w.push(id, true)
	case sections.OpUnlock:
		w.pop(id)
	case sections.OpSection:
		// The body runs with the lock held: Sync and the §5
		// upgrade-capable ReadMostly hold it for writing, the speculative
		// entries only for reading. The acquisition orders the lock after
		// everything held, ReadOnly's too: its fallback arm takes it.
		w.event(gbAcquire, id, nil, call)
		lit, _ := ast.Unparen(lc.Body).(*ast.FuncLit)
		fn := sections.FuncOf(w.pkg, lc.Body)
		if lit == nil && fn == nil {
			w.expr(lc.Body)
			return
		}
		saved := w.save()
		w.push(id, lc.Mode != sections.ModeReadOnly)
		if lit != nil {
			w.stmts(lit.Body.List)
		} else {
			w.callTo(fn, call)
		}
		w.restore(saved)
	case sections.OpWait:
		w.event(gbWait, id, nil, call)
	}
}

func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// ---- whole-program construction ----

// heldWalk walks (once) every declaration, recording accesses with their
// local held sets, the call edges carrying them, and the lock-order
// events lockorder reads.
func (ctx *Context) heldWalk() *gbBuilder {
	ctx.walkOnce.Do(func() {
		b := &gbBuilder{ctx: ctx, litSites: map[*ast.FuncLit]*sections.Site{}}
		for _, s := range ctx.Sections.Sites {
			if s.Lit != nil {
				b.litSites[s.Lit] = s
			}
		}
		for _, pkg := range ctx.Prog.Packages {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					if fn == nil {
						continue
					}
					w := &gbWalker{b: b, pkg: pkg, fn: fn, fresh: map[*types.Var]bool{}}
					w.stmts(fd.Body.List)
				}
			}
		}
		ctx.walk = b
	})
	return ctx.walk
}

func buildGuardInfo(ctx *Context) *guardInfo {
	// Pass 1: the shared held-lock walk.
	b := ctx.heldWalk()
	// Pass 2: descending fixed point on the interprocedural context — the
	// lockset every caller is guaranteed to hold around a function.
	ctxOf := callerContexts(b)
	// Pass 3: per-identity aggregation and findings.
	g := &guardInfo{
		guards:     map[string]string{},
		siteReads:  map[*sections.Site]map[string]string{},
		siteWrites: map[*sections.Site]map[string]string{},
	}
	decls := collectDecls(ctx)
	aggregate(ctx, b, ctxOf, decls, g)
	sectionGuardMaps(ctx, b, g)
	return g
}

// callerContexts computes, for every function, the intersection over its
// call sites of (locks held at the site ∪ the caller's own context) —
// the locks the function is guaranteed to run under. Functions with no
// recorded call site (entry points, goroutine roots) run under none.
func callerContexts(b *gbBuilder) map[*types.Func]gbLockset {
	inEdges := map[*types.Func][]*gbCall{}
	for _, c := range b.calls {
		inEdges[c.callee] = append(inEdges[c.callee], c)
	}
	ctxOf := map[*types.Func]gbLockset{}
	var fns []*types.Func
	seen := map[*types.Func]bool{}
	add := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			fns = append(fns, fn)
			if len(inEdges[fn]) == 0 {
				ctxOf[fn] = gbEmpty()
			} else {
				ctxOf[fn] = gbTop()
			}
		}
	}
	for _, a := range b.accesses {
		add(a.fn)
	}
	for _, c := range b.calls {
		add(c.caller)
		add(c.callee)
	}
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].Pos() != fns[j].Pos() {
			return fns[i].Pos() < fns[j].Pos()
		}
		return fns[i].FullName() < fns[j].FullName()
	})
	for round := 0; round < 64; round++ {
		changed := false
		for _, fn := range fns {
			edges := inEdges[fn]
			if len(edges) == 0 {
				continue
			}
			ns := gbTop()
			for _, e := range edges {
				h := e.held
				if !e.rooted {
					if c, ok := ctxOf[e.caller]; ok {
						h = h.union(c)
					}
				}
				ns = ns.intersect(h)
			}
			if !ns.equal(ctxOf[fn]) {
				ctxOf[fn] = ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return ctxOf
}

// collectDecls maps every struct-field and package-level-var identity to
// its declaration and any //solerovet:guardedby directive.
func collectDecls(ctx *Context) map[string]*gbDecl {
	out := map[string]*gbDecl{}
	put := func(d *gbDecl) {
		if _, ok := out[d.id]; !ok {
			out[d.id] = d
		}
	}
	for _, pkg := range ctx.Prog.Packages {
		for _, file := range pkg.Files {
			directives := guardDirectives(ctx, file)
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						if gd.Tok != token.VAR {
							continue
						}
						for _, name := range spec.Names {
							v, ok := pkg.Info.Defs[name].(*types.Var)
							if !ok || !isPkgLevel(v) {
								continue
							}
							put(&gbDecl{
								id:      "G:" + v.Pkg().Path() + "." + v.Name(),
								pos:     name.Pos(),
								pkgPath: pkg.PkgPath,
								guard:   directiveAt(ctx, directives, name.Pos()),
							})
						}
					case *ast.TypeSpec:
						st, ok := spec.Type.(*ast.StructType)
						if !ok || st.Fields == nil {
							continue
						}
						for _, f := range st.Fields.List {
							for _, name := range f.Names {
								put(&gbDecl{
									id:      "F:" + spec.Name.Name + "." + name.Name,
									pos:     name.Pos(),
									pkgPath: pkg.PkgPath,
									guard:   directiveAt(ctx, directives, name.Pos()),
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// guardDirectives maps comment lines to //solerovet:guardedby payloads.
func guardDirectives(ctx *Context, file *ast.File) map[int]string {
	out := map[int]string{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//solerovet:guardedby(")
			if !ok {
				continue
			}
			payload, ok := strings.CutSuffix(strings.TrimSpace(rest), ")")
			if !ok || payload == "" {
				continue
			}
			out[ctx.Prog.Fset.Position(c.Pos()).Line] = payload
		}
	}
	return out
}

// directiveAt resolves a declaration's directive: on its line or the
// line directly above.
func directiveAt(ctx *Context, directives map[int]string, pos token.Pos) string {
	line := ctx.Prog.Fset.Position(pos).Line
	if d, ok := directives[line]; ok {
		return d
	}
	return directives[line-1]
}

// guardMatches reports whether a held lock identity satisfies a declared
// guard name: the display form matches exactly or by final component
// ("mu" matches "table.mu").
func guardMatches(lockID, declared string) bool {
	d := displayLock(lockID)
	return d == declared || strings.HasSuffix(d, "."+declared)
}

// gbSite pairs an access with its effective (local ∪ context) lockset.
type gbSite struct {
	acc *gbAccess
	eff gbLockset
}

// aggregate intersects effective locksets per identity and renders the
// findings. Candidacy requires the program to evidently associate the
// identity with a lock: at least one write under a known nonempty
// lockset, or an explicit guardedby declaration.
func aggregate(ctx *Context, b *gbBuilder, ctxOf map[*types.Func]gbLockset, decls map[string]*gbDecl, g *guardInfo) {
	byID := map[string][]gbSite{}
	for _, a := range b.accesses {
		eff := a.held
		if !a.rooted {
			if c, ok := ctxOf[a.fn]; ok {
				eff = eff.union(c)
			}
		}
		if eff.top {
			continue
		}
		byID[a.id] = append(byID[a.id], gbSite{acc: a, eff: eff})
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sites := byID[id]
		sort.Slice(sites, func(i, j int) bool { return sites[i].acc.pos < sites[j].acc.pos })
		if d := decls[id]; d != nil && d.guard != "" {
			declaredGuard(ctx, g, id, d, sites)
			continue
		}
		inferGuard(ctx, g, id, decls[id], sites)
	}
}

// declaredGuard enforces an explicit //solerovet:guardedby directive.
func declaredGuard(ctx *Context, g *guardInfo, id string, d *gbDecl, sites []gbSite) {
	resolved := "" // the lock identity the declared name denotes, if seen
	for _, s := range sites {
		for _, lid := range s.eff.ids() {
			if guardMatches(lid, d.guard) {
				resolved = lid
				break
			}
		}
		if resolved != "" {
			break
		}
	}
	if resolved != "" {
		g.guards[id] = resolved
	} else {
		g.guards[id] = d.guard
	}
	for _, s := range sites {
		var heldMatch, writeHold bool
		for lid, w := range s.eff.locks {
			if guardMatches(lid, d.guard) {
				heldMatch = true
				writeHold = writeHold || w
			}
		}
		switch {
		case !heldMatch:
			g.findings = append(g.findings, gbFinding{
				pos: s.acc.pos, end: s.acc.end, pkgPath: s.acc.pkgPath,
				message: fmt.Sprintf("%s is declared //solerovet:guardedby(%s) but the guard is not held at this %s",
					displayLock(id), d.guard, accessWord(s.acc.write)),
			})
		case s.acc.write && !writeHold:
			g.findings = append(g.findings, readHoldWrite(id, d.guard, s))
		}
	}
}

// inferGuard runs the Eraser intersection over one identity's sites.
func inferGuard(ctx *Context, g *guardInfo, id string, d *gbDecl, sites []gbSite) {
	lockedWrite := false
	var locked []gbSite
	for _, s := range sites {
		if !s.eff.empty() {
			locked = append(locked, s)
			lockedWrite = lockedWrite || s.acc.write
		}
	}
	// No locked write anywhere: the program does not treat this identity
	// as lock-guarded (it may be confined, channel-owned, or init-only) —
	// the lockset discipline has nothing to say.
	if !lockedWrite {
		return
	}
	all := gbTop()
	for _, s := range sites {
		all = all.intersect(s.eff)
	}
	if !all.empty() {
		// A consistent guard across every site: record it, and flag
		// writes performed while it is held only in read mode.
		guard := all.ids()[0]
		g.guards[id] = guard
		for _, s := range sites {
			if !s.acc.write {
				continue
			}
			writeHold := false
			for _, lid := range all.ids() {
				if s.eff.locks[lid] {
					writeHold = true
					break
				}
			}
			if !writeHold {
				g.findings = append(g.findings, readHoldWrite(id, displayLock(guard), s))
			}
		}
		return
	}
	// Locked sites only: if even those disagree, no lock protects every
	// access — guard confusion, witnessed at the first site whose
	// lockset is disjoint from the running intersection.
	inter := locked[0].eff
	confused := false
	for i := 1; i < len(locked); i++ {
		next := inter.intersect(locked[i].eff)
		if next.empty() {
			confused = true
			prev := ctx.Prog.Fset.Position(locked[i-1].acc.pos)
			s := locked[i]
			g.findings = append(g.findings, gbFinding{
				pos: s.acc.pos, end: s.acc.end, pkgPath: s.acc.pkgPath,
				message: fmt.Sprintf("guard confusion: %s is accessed under %s here but under %s at %s:%d; no common lock guards every access",
					displayLock(id), displayLock(s.eff.ids()[0]), displayLock(inter.ids()[0]),
					shortFile(prev.Filename), prev.Line),
			})
			break
		}
		inter = next
	}
	// A confused identity has no guard: exporting one (or anchoring
	// unguarded reports on one) would be noise on top of the confusion
	// finding.
	if confused {
		return
	}
	guardID := ""
	if !inter.empty() {
		guardID = inter.ids()[0]
		g.guards[id] = guardID
	}
	// Unlocked sites against a consistently locked remainder: unguarded
	// shared access, the classic lockset race. Reads only count when a
	// locked write exists (it does, by candidacy).
	if guardID == "" {
		return
	}
	witness := ctx.Prog.Fset.Position(locked[0].acc.pos)
	for _, s := range sites {
		if !s.eff.empty() {
			continue
		}
		g.findings = append(g.findings, gbFinding{
			pos: s.acc.pos, end: s.acc.end, pkgPath: s.acc.pkgPath,
			message: fmt.Sprintf("unguarded shared access: %s is %s with no lock held, but is guarded by %s at %s:%d",
				displayLock(id), accessWord(s.acc.write), displayLock(guardID),
				shortFile(witness.Filename), witness.Line),
			fixes: guardedbyInsert(ctx, d, guardID),
		})
	}
}

// readHoldWrite renders the write-under-read-only-hold finding.
func readHoldWrite(id, guard string, s gbSite) gbFinding {
	return gbFinding{
		pos: s.acc.pos, end: s.acc.end, pkgPath: s.acc.pkgPath,
		message: fmt.Sprintf("%s is written while its guard %s is held only for speculative reads; writes need the lock (Sync) or a ReadMostly upgrade",
			displayLock(id), guard),
	}
}

func accessWord(write bool) string {
	if write {
		return "written"
	}
	return "read"
}

// guardedbyInsert builds the -fix edit declaring the inferred guard: a
// //solerovet:guardedby directive on its own line directly above the
// field or variable declaration, at the declaration's indentation.
func guardedbyInsert(ctx *Context, d *gbDecl, guardID string) []analysis.SuggestedFix {
	if d == nil || d.guard != "" {
		return nil
	}
	// Only declarations in target packages are fixable source.
	pkg := ctx.Prog.ByPath(d.pkgPath)
	if pkg == nil || !pkg.Target {
		return nil
	}
	tf := ctx.Prog.Fset.File(d.pos)
	if tf == nil {
		return nil
	}
	pos := ctx.Prog.Fset.Position(d.pos)
	lineStart := tf.LineStart(pos.Line)
	indent := strings.Repeat("\t", pos.Column-1)
	return []analysis.SuggestedFix{{
		Message: fmt.Sprintf("declare the inferred guard with //solerovet:guardedby(%s)", guardDirectiveName(guardID)),
		TextEdits: []analysis.TextEdit{{
			Pos: lineStart, End: lineStart,
			NewText: indent + "//solerovet:guardedby(" + guardDirectiveName(guardID) + ")\n",
		}},
	}}
}

// guardDirectiveName renders the short directive form of a guard: the
// final component for fields ("mu" for F:table.mu), the display form for
// globals.
func guardDirectiveName(guardID string) string {
	d := displayLock(guardID)
	if strings.HasPrefix(guardID, "F:") {
		if i := strings.LastIndexByte(d, '.'); i >= 0 {
			return d[i+1:]
		}
	}
	return d
}

// sectionGuardMaps computes, per section site, the guarded fields the
// section reads and writes — the facts v2 payload the runtime's verify
// mode cross-checks against the lock actually held.
func sectionGuardMaps(ctx *Context, b *gbBuilder, g *guardInfo) {
	for _, site := range ctx.Sections.Sites {
		var reads, writes map[string]bool
		switch {
		case site.Lit != nil:
			reads, writes = siteAccessIDs(b.ctx, site)
		case site.Named != nil:
			reads, writes = map[string]bool{}, map[string]bool{}
			for _, a := range b.accesses {
				if a.fn == site.Named {
					if a.write {
						writes[a.id] = true
					} else {
						reads[a.id] = true
					}
				}
			}
		default:
			continue
		}
		g.siteReads[site] = guardMapOf(g, reads)
		g.siteWrites[site] = guardMapOf(g, writes)
	}
}

// siteAccessIDs walks one section literal with a throwaway builder and
// returns the identities it reads and writes directly.
func siteAccessIDs(ctx *Context, site *sections.Site) (reads, writes map[string]bool) {
	tb := &gbBuilder{ctx: ctx, litSites: map[*ast.FuncLit]*sections.Site{}}
	w := &gbWalker{b: tb, pkg: site.Pkg, fresh: map[*types.Var]bool{}}
	w.stmts(site.Lit.Body.List)
	reads, writes = map[string]bool{}, map[string]bool{}
	for _, a := range tb.accesses {
		if a.write {
			writes[a.id] = true
		} else {
			reads[a.id] = true
		}
	}
	return reads, writes
}

// guardMapOf projects accessed identities onto their guards, display
// form, keeping only identities with a known guard.
func guardMapOf(g *guardInfo, ids map[string]bool) map[string]string {
	out := map[string]string{}
	for id := range ids {
		if guard := g.guards[id]; guard != "" {
			out[displayLock(id)] = displayLock(guard)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ---- reporting ----

func runGuardedby(pass *analysis.Pass) error {
	ctx, pkg, err := passContext(pass)
	if err != nil {
		return err
	}
	g := ctx.guardAnalysis()
	for _, f := range g.findings {
		if f.pkgPath != pkg.PkgPath {
			continue
		}
		pass.Report(analysis.Diagnostic{
			Pos: f.pos, End: f.end, Category: pass.Analyzer.Name,
			Message: f.message, Fixes: f.fixes,
		})
	}
	return nil
}
