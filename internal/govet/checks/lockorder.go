package checks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/govet/analysis"
	"repro/internal/govet/load"
)

// Lockorder builds the whole-program lock-acquisition-order graph over
// SOLERO locks and reports cycles — the classic ABBA deadlock shape — with
// a witness path, plus the wait-while-holding hazard: a (*Lock).Wait that
// parks while the thread still holds a *different* lock, which is never
// released while waiting.
//
// Lock identity is static: package-level lock variables ("G:pkg.name") and
// struct fields of lock type ("F:Type.field"). Locks reachable only
// through locals have no stable identity and are skipped, as are
// self-edges (SOLERO locks are reentrant, and looping over a shard array
// re-acquires the same identity by design).
var Lockorder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "build the whole-program lock acquisition graph over core.Lock and report " +
		"acquisition-order cycles (ABBA deadlocks) and waits performed while holding another lock",
	Run: runLockorder,
}

// lockEdge is one witnessed ordering: `to` was acquired at pos while
// `from` was held.
type lockEdge struct {
	from, to string
	pos      token.Pos
	pkgPath  string
}

// lockWait is one wait-while-holding finding.
type lockWait struct {
	pos     token.Pos
	end     token.Pos
	target  string // lock being waited on
	held    string // other lock still held
	pkgPath string
}

// lockGraph is the whole-program result, built once per Context.
type lockGraph struct {
	// edges[from][to] keeps the first witness of each ordering.
	edges map[string]map[string]*lockEdge
	waits []*lockWait
}

// lockOrderGraph builds (once) and returns the program's lock graph.
func (ctx *Context) lockOrderGraph() *lockGraph {
	ctx.lockOnce.Do(func() {
		ctx.lockGraph = buildLockGraph(ctx)
	})
	return ctx.lockGraph
}

func buildLockGraph(ctx *Context) *lockGraph {
	g := &lockGraph{edges: map[string]map[string]*lockEdge{}}
	// Pass 1 (fixed point): per-function summaries of every lock identity
	// the function may acquire, directly or through callees.
	summaries := map[*types.Func]map[string]bool{}
	for {
		changed := false
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
					acq := summarizeAcquires(pkg, fd, summaries)
					prev := summaries[fn]
					if len(acq) != len(prev) {
						summaries[fn] = acq
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	// Pass 2: a held-set walk of every function body, adding ordering
	// edges and wait findings.
	for _, pkg := range ctx.Prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w := &loWalker{g: g, pkg: pkg, summaries: summaries}
				w.stmts(fd.Body.List)
			}
		}
	}
	return g
}

// summarizeAcquires collects every lock identity a declaration may acquire,
// folding in current callee summaries (the fixed point grows them).
func summarizeAcquires(pkg *load.Package, fd *ast.FuncDecl, summaries map[*types.Func]map[string]bool) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, _, acquires := lockCallOf(pkg, call); acquires && id != "" {
			out[id] = true
		}
		if fn := calleeFunc(pkg, call); fn != nil {
			for id := range summaries[fn.Origin()] {
				out[id] = true
			}
		}
		return true
	})
	return out
}

// heldLock is one entry of the walk's held set.
type heldLock struct {
	id  string
	pos token.Pos
}

// loWalker walks one function body sequentially, tracking which lock
// identities are held.
type loWalker struct {
	g         *lockGraph
	pkg       *load.Package
	summaries map[*types.Func]map[string]bool
	held      []heldLock
}

func (w *loWalker) holds(id string) bool {
	for _, h := range w.held {
		if h.id == id {
			return true
		}
	}
	return false
}

// acquireEdges records held -> id orderings (skipping self-edges:
// reentrancy and shard iteration are by design).
func (w *loWalker) acquireEdges(id string, pos token.Pos) {
	for _, h := range w.held {
		if h.id == id {
			continue
		}
		w.g.addEdge(h.id, id, pos, w.pkg.PkgPath)
	}
}

func (g *lockGraph) addEdge(from, to string, pos token.Pos, pkgPath string) {
	m := g.edges[from]
	if m == nil {
		m = map[string]*lockEdge{}
		g.edges[from] = m
	}
	if m[to] == nil {
		m[to] = &lockEdge{from: from, to: to, pos: pos, pkgPath: pkgPath}
	}
}

// saveHeld snapshots the held set around a branch or closure body so
// acquisitions inside do not leak past it.
func (w *loWalker) saveHeld() []heldLock {
	return append([]heldLock(nil), w.held...)
}

func (w *loWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *loWalker) stmt(s ast.Stmt) {
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
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		saved := w.saveHeld()
		w.stmt(s.Body)
		w.held = saved
		w.stmt(s.Else)
		w.held = saved
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		saved := w.saveHeld()
		w.stmt(s.Body)
		w.stmt(s.Post)
		w.held = saved
	case *ast.RangeStmt:
		w.expr(s.X)
		saved := w.saveHeld()
		w.stmt(s.Body)
		w.held = saved
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		saved := w.saveHeld()
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
				w.held = saved
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		saved := w.saveHeld()
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
				w.held = saved
			}
		}
	case *ast.SelectStmt:
		saved := w.saveHeld()
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body)
				w.held = saved
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.DeferStmt:
		// A deferred Unlock releases at function end; for ordering
		// purposes the lock stays held for the rest of the walk, which is
		// exactly the deferred semantics. Other deferred calls are walked
		// for their own acquisitions.
		if id, name, _ := lockCallOf(w.pkg, s.Call); id != "" && name == "Unlock" {
			return
		}
		w.expr(s.Call)
	case *ast.GoStmt:
		// The goroutine starts with an empty held set of its own.
		saved := w.saveHeld()
		w.held = nil
		w.expr(s.Call)
		w.held = saved
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
	case *ast.IncDecStmt:
		w.expr(s.X)
	}
}

func (w *loWalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
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
	case *ast.SliceExpr:
		w.expr(e.X)
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
		// A closure not consumed by a lock entry point: walk it with the
		// current held set (it may run in place) — acquisitions inside do
		// not leak out.
		saved := w.saveHeld()
		w.stmts(e.Body.List)
		w.held = saved
	}
}

func (w *loWalker) call(call *ast.CallExpr) {
	// Walk arguments first (nested calls acquire before the outer callee
	// runs), except closure args consumed by lock entry points, which get
	// the held+lock treatment below.
	id, name, _ := lockCallOf(w.pkg, call)
	var sectionArg ast.Expr
	if name == "Sync" || name == "ReadOnly" || name == "ReadMostly" || name == "ReadOnlySection" {
		if n := len(call.Args); n > 0 {
			sectionArg = call.Args[n-1]
		}
	}
	for _, a := range call.Args {
		if a == sectionArg {
			continue
		}
		w.expr(a)
	}
	if fun, ok := call.Fun.(*ast.SelectorExpr); ok {
		w.expr(fun.X)
	}

	switch name {
	case "Lock":
		if id != "" {
			w.acquireEdges(id, call.Pos())
			if !w.holds(id) {
				w.held = append(w.held, heldLock{id: id, pos: call.Pos()})
			}
		}
		return
	case "Unlock":
		if id != "" {
			for i := len(w.held) - 1; i >= 0; i-- {
				if w.held[i].id == id {
					w.held = append(w.held[:i], w.held[i+1:]...)
					break
				}
			}
		}
		return
	case "Sync", "ReadOnly", "ReadMostly", "ReadOnlySection":
		// Closure-scoped acquisition: the section body runs with the lock
		// ordered after everything currently held. ReadOnly counts too —
		// its fallback arm performs a real acquisition.
		if id != "" {
			w.acquireEdges(id, call.Pos())
		}
		if lit, ok := ast.Unparen(sectionArg).(*ast.FuncLit); ok {
			saved := w.saveHeld()
			if id != "" && !w.holds(id) {
				w.held = append(w.held, heldLock{id: id, pos: call.Pos()})
			}
			w.stmts(lit.Body.List)
			w.held = saved
		} else if sectionArg != nil {
			w.expr(sectionArg)
		}
		return
	case "Wait", "WaitTimeout":
		for _, h := range w.held {
			if id != "" && h.id == id {
				continue
			}
			w.g.waits = append(w.g.waits, &lockWait{
				pos: call.Pos(), end: call.End(),
				target: displayLock(id), held: h.id,
				pkgPath: w.pkg.PkgPath,
			})
		}
		return
	}

	// A user function: every lock its summary may acquire is ordered
	// after everything currently held.
	if fn := calleeFunc(w.pkg, call); fn != nil {
		if sum := w.summaries[fn.Origin()]; len(sum) > 0 && len(w.held) > 0 {
			ids := make([]string, 0, len(sum))
			for id := range sum {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				w.acquireEdges(id, call.Pos())
			}
		}
	}
}

// calleeFunc resolves a call's static callee when it is a declared
// function or method of this program (nil for builtins, conversions,
// closures, and interface-typed dynamic calls — the walk is best effort).
func calleeFunc(pkg *load.Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ---- lock identity ----

// lockCallOf recognizes calls on core.Lock: it returns the receiver's
// static identity ("" when none), the method name ("" when the call is not
// a Lock method), and whether the call acquires the lock.
func lockCallOf(pkg *load.Package, call *ast.CallExpr) (id, name string, acquires bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "repro/internal/core" || recvName(fn) != "Lock" {
		return "", "", false
	}
	name = fn.Name()
	switch name {
	case "Lock", "Sync", "ReadOnly", "ReadMostly", "ReadOnlySection", "Wait", "WaitTimeout":
		acquires = true
	case "Unlock", "Notify", "NotifyAll":
	default:
		// Accessors (Stats, Word, ...) have no ordering significance.
		return "", name, false
	}
	return lockIdent(pkg, sel.X), name, acquires
}

// recvName resolves a method's receiver type name (shared with the
// sections package's convention).
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

// lockIdent derives a stable whole-program identity for a lock expression:
// "G:pkgpath.name" for package-level variables, "F:Type.field" for struct
// fields of lock type, "" for anything else (locals, parameters, array
// elements of locals).
func lockIdent(pkg *load.Package, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := pkg.Info.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "G:" + v.Pkg().Path() + "." + v.Name()
		}
		return ""
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			f, _ := sel.Obj().(*types.Var)
			if f == nil {
				return ""
			}
			if owner := namedOf(sel.Recv()); owner != "" {
				return "F:" + owner + "." + f.Name()
			}
			return ""
		}
		// Qualified package-level variable pkg.Var.
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "G:" + v.Pkg().Path() + "." + v.Name()
		}
		return ""
	case *ast.IndexExpr:
		// locks[i]: all elements of one named container share identity —
		// iteration over a shard array then only produces self-edges,
		// which are skipped.
		return lockIdent(pkg, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return lockIdent(pkg, x.X)
		}
		return ""
	}
	return ""
}

func namedOf(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// displayLock strips the identity's namespace prefix for messages.
func displayLock(id string) string {
	if len(id) > 2 && (id[0] == 'G' || id[0] == 'F') && id[1] == ':' {
		return id[2:]
	}
	if id == "" {
		return "a lock"
	}
	return id
}

// ---- reporting ----

func runLockorder(pass *analysis.Pass) error {
	ctx, pkg, err := passContext(pass)
	if err != nil {
		return err
	}
	g := ctx.lockOrderGraph()
	for _, wt := range g.waits {
		if wt.pkgPath != pkg.PkgPath {
			continue
		}
		pass.Reportf(wt.pos, wt.end,
			"waits on %s while holding %s; the held lock is not released while parked (deadlock hazard)",
			wt.target, displayLock(wt.held))
	}
	for _, cyc := range g.cycles() {
		first := cyc[0]
		if first.pkgPath != pkg.PkgPath {
			continue
		}
		pass.Reportf(first.pos, first.pos,
			"lock-order cycle: %s; %s", cycleString(cyc), witnessString(ctx, cyc))
	}
	return nil
}

// cycles finds one witness cycle per strongly connected component of the
// ordering graph, deterministically.
func (g *lockGraph) cycles() [][]*lockEdge {
	nodes := make([]string, 0, len(g.edges))
	seen := map[string]bool{}
	for from, m := range g.edges {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for to := range m {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)

	var out [][]*lockEdge
	reported := map[string]bool{}
	for _, start := range nodes {
		if reported[start] {
			continue
		}
		if cyc := g.findCycle(start); cyc != nil {
			key := canonicalCycle(cyc)
			if !dupCycle(out, key) {
				out = append(out, cyc)
			}
			for _, e := range cyc {
				reported[e.from] = true
			}
		}
	}
	return out
}

func dupCycle(cycles [][]*lockEdge, key string) bool {
	for _, c := range cycles {
		if canonicalCycle(c) == key {
			return true
		}
	}
	return false
}

// findCycle does a DFS from start and returns the first path that closes
// back on start, as edges (deterministic: neighbors visited in sorted
// order).
func (g *lockGraph) findCycle(start string) []*lockEdge {
	var path []*lockEdge
	onPath := map[string]bool{start: true}
	var dfs func(node string) bool
	dfs = func(node string) bool {
		tos := make([]string, 0, len(g.edges[node]))
		for to := range g.edges[node] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			e := g.edges[node][to]
			if to == start {
				path = append(path, e)
				return true
			}
			if onPath[to] {
				continue
			}
			onPath[to] = true
			path = append(path, e)
			if dfs(to) {
				return true
			}
			path = path[:len(path)-1]
			delete(onPath, to)
		}
		return false
	}
	if dfs(start) {
		return path
	}
	return nil
}

// canonicalCycle renders a rotation-invariant key for dedupe.
func canonicalCycle(cyc []*lockEdge) string {
	n := len(cyc)
	best := ""
	for rot := 0; rot < n; rot++ {
		parts := make([]string, n)
		for i := 0; i < n; i++ {
			parts[i] = cyc[(rot+i)%n].from
		}
		s := strings.Join(parts, "->")
		if best == "" || s < best {
			best = s
		}
	}
	return best
}

// cycleString renders "A -> B -> A".
func cycleString(cyc []*lockEdge) string {
	parts := make([]string, 0, len(cyc)+1)
	for _, e := range cyc {
		parts = append(parts, displayLock(e.from))
	}
	parts = append(parts, displayLock(cyc[0].from))
	return strings.Join(parts, " -> ")
}

// witnessString renders where each ordering of the cycle was observed.
func witnessString(ctx *Context, cyc []*lockEdge) string {
	parts := make([]string, 0, len(cyc))
	for _, e := range cyc {
		p := ctx.Prog.Fset.Position(e.pos)
		parts = append(parts, fmt.Sprintf("%s acquired while holding %s at %s:%d",
			displayLock(e.to), displayLock(e.from), shortFile(p.Filename), p.Line))
	}
	return "witness: " + strings.Join(parts, "; ")
}

func shortFile(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}
