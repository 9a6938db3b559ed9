package sections

import (
	"go/ast"
	"go/types"

	"repro/internal/govet/load"
)

// Op is what a lock call does to the lock it names.
type Op uint8

const (
	// OpLock acquires the lock until the matching Unlock.
	OpLock Op = iota + 1
	// OpUnlock releases one hold of the lock.
	OpUnlock
	// OpSection runs the body argument with the lock held: for writing
	// under ModeSync and ModeReadMostly, for speculative reading under
	// ModeReadOnly (whose fallback arm still acquires it).
	OpSection
	// OpWait parks on the lock, releasing only that lock while parked.
	OpWait
	// OpNotify wakes waiters; it neither acquires nor releases.
	OpNotify
)

// LockCall is one call that enters, holds, releases, waits on or
// notifies a core.Lock.
type LockCall struct {
	Op Op
	// Lock is the lock expression: the receiver, or Args[0] for a value
	// form.
	Lock ast.Expr
	// Body is the section body argument (OpSection only).
	Body ast.Expr
	// Mode is the protocol the body runs under (OpSection only).
	Mode Mode
}

// lockEntry is one row of the lock-call table.
type lockEntry struct {
	op   Op
	body int // argument index of the section body (OpSection only)
	mode Mode
	// site marks entries whose body discovery records as a section site.
	// ReadOnlySection's plan comes from its SectionInfo at run time (a
	// proven-writing info takes the lock), so its body has no fixed mode
	// to hold a closure to.
	site bool
}

// lockMethods is the lock-call table for core.Lock's methods.
var lockMethods = map[string]lockEntry{
	"Lock":            {op: OpLock},
	"Unlock":          {op: OpUnlock},
	"Sync":            {op: OpSection, body: 1, mode: ModeSync, site: true},
	"ReadOnly":        {op: OpSection, body: 1, mode: ModeReadOnly, site: true},
	"ReadMostly":      {op: OpSection, body: 1, mode: ModeReadMostly, site: true},
	"ReadOnlySection": {op: OpSection, body: 2, mode: ModeReadOnly},
	"Wait":            {op: OpWait},
	"WaitTimeout":     {op: OpWait},
	"Notify":          {op: OpNotify},
	"NotifyAll":       {op: OpNotify},
}

// valueForms is the lock-call table for the value-returning entry
// points, which take the lock as their first argument: fn(l, t, body).
var valueForms = map[string]lockEntry{
	corePath + ".ReadOnlyValue": {op: OpSection, body: 2, mode: ModeReadOnly, site: true},
	soleroPath + ".ReadOnly":    {op: OpSection, body: 2, mode: ModeReadOnly, site: true},
}

// entryOf looks a function up in the lock-call table.
func entryOf(fn *types.Func) (lockEntry, bool) {
	if fn == nil || fn.Pkg() == nil {
		return lockEntry{}, false
	}
	var e lockEntry
	var ok bool
	switch recvName(fn) {
	case "Lock":
		if fn.Pkg().Path() == corePath {
			e, ok = lockMethods[fn.Name()]
		}
	case "":
		e, ok = valueForms[fn.Pkg().Path()+"."+fn.Name()]
	}
	return e, ok
}

// LockCallOf recognizes a call in the lock-call table and splits it into
// its lock expression, operation, body and mode.
func LockCallOf(pkg *load.Package, call *ast.CallExpr) (LockCall, bool) {
	fn := FuncOf(pkg, call.Fun)
	e, ok := entryOf(fn)
	if !ok {
		return LockCall{}, false
	}
	lc := LockCall{Op: e.op, Mode: e.mode}
	if recvName(fn) == "" {
		if len(call.Args) == 0 {
			return LockCall{}, false
		}
		lc.Lock = call.Args[0]
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		lc.Lock = sel.X
	} else {
		return LockCall{}, false
	}
	if e.op == OpSection {
		if e.body >= len(call.Args) {
			return LockCall{}, false
		}
		lc.Body = call.Args[e.body]
	}
	return lc, true
}

// FuncOf resolves a function-valued expression (a call's Fun, or a
// function passed as a value) to its declared function or method, through
// generic instantiation; nil for builtins, conversions, closures and
// func-typed variables.
func FuncOf(pkg *load.Package, e ast.Expr) *types.Func {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = ast.Unparen(x.X)
	case *ast.IndexListExpr:
		e = ast.Unparen(x.X)
	}
	var fn *types.Func
	switch x := e.(type) {
	case *ast.Ident:
		fn, _ = pkg.Info.Uses[x].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pkg.Info.Uses[x.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}
