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
// The graph is read from guardedby's held-lock walk, which records each
// acquisition (Lock, the section entries Sync, ReadOnly, ReadMostly and
// ReadOnlySection, and the value forms core.ReadOnlyValue and
// solero.ReadOnly), each wait and each call with the locks held there; a
// named function passed as a section body is a call made with the lock
// held.
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

// buildLockGraph reads the graph from the held-lock walk's events. A
// fixed point first summarizes every lock identity each function may
// acquire, directly or through callees (a goroutine's acquisitions are
// not its spawner's). A replay in walk order then orders each acquisition
// after the locks held at it, so every edge keeps its first witness.
func buildLockGraph(ctx *Context) *lockGraph {
	events := ctx.heldWalk().events
	summaries := map[*types.Func]map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, ev := range events {
			if ev.rooted || ev.fn == nil {
				continue
			}
			add := func(id string) {
				if id == "" || summaries[ev.fn][id] {
					return
				}
				if summaries[ev.fn] == nil {
					summaries[ev.fn] = map[string]bool{}
				}
				summaries[ev.fn][id] = true
				changed = true
			}
			if ev.kind == gbCallTo {
				for id := range summaries[ev.callee] {
					add(id)
				}
			} else {
				add(ev.lock)
			}
		}
	}

	g := &lockGraph{edges: map[string]map[string]*lockEdge{}}
	for _, ev := range events {
		switch ev.kind {
		case gbAcquire:
			g.acquireEdges(ev, ev.lock)
		case gbCallTo:
			if len(ev.held) == 0 {
				continue
			}
			ids := make([]string, 0, len(summaries[ev.callee]))
			for id := range summaries[ev.callee] {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				g.acquireEdges(ev, id)
			}
		case gbWait:
			for _, h := range ev.held {
				if ev.lock != "" && h == ev.lock {
					continue
				}
				g.waits = append(g.waits, &lockWait{
					pos: ev.pos, end: ev.end,
					target: displayLock(ev.lock), held: h,
					pkgPath: ev.pkgPath,
				})
			}
		}
	}
	return g
}

// acquireEdges records held -> id orderings at ev, skipping self-edges
// (reentrancy and shard iteration are by design) and unnamed locks.
func (g *lockGraph) acquireEdges(ev *gbEvent, id string) {
	if id == "" {
		return
	}
	for _, h := range ev.held {
		if h != id {
			g.addEdge(h, id, ev.pos, ev.pkgPath)
		}
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

// ---- lock identity ----

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
