package sema

import (
	"repro/internal/jit/lang"
)

// Check performs semantic analysis of prog.
func Check(prog *lang.Program) (*Checked, error) {
	ck := &checker{
		out: &Checked{
			Program:     prog,
			Classes:     make(map[string]*ClassInfo),
			ExprTypes:   make(map[lang.Expr]Type),
			Resolutions: make(map[lang.Expr]*Resolution),
			Calls:       make(map[*lang.Call]*CallInfo),
			DeclSlots:   make(map[*lang.LocalDecl]int),
		},
	}
	if err := ck.buildClassTable(prog); err != nil {
		return nil, err
	}
	for _, c := range prog.Classes {
		ci := ck.out.Classes[c.Name]
		for _, m := range c.Methods {
			if err := ck.checkMethod(ci, ci.Methods[m.Name], m); err != nil {
				return nil, err
			}
		}
	}
	return ck.out, nil
}

type checker struct {
	out *Checked

	// Per-method state.
	class   *ClassInfo
	method  *MethodInfo
	scopes  []map[string]int // name -> slot
	slotTys []Type           // slot -> declared type
	// loopDepth tracks enclosing loops for break/continue; synchronized
	// blocks reset it (a jump may not leave a critical section in this
	// language — the block is the retry/recovery unit).
	loopDepth int
}

func (ck *checker) buildClassTable(prog *lang.Program) error {
	// Predeclare builtin exception classes.
	var runtimeExc *ClassInfo
	for i, name := range BuiltinExceptionClasses {
		ci := &ClassInfo{
			Name:    name,
			Fields:  make(map[string]*FieldInfo),
			Statics: make(map[string]*FieldInfo),
			Methods: make(map[string]*MethodInfo),
			Builtin: true,
		}
		if i == 0 {
			runtimeExc = ci
		} else {
			ci.Super = runtimeExc
		}
		ck.out.Classes[name] = ci
	}

	// First pass: declare classes.
	for _, c := range prog.Classes {
		if _, dup := ck.out.Classes[c.Name]; dup {
			return errf(c.Pos, "class %s redeclared", c.Name)
		}
		ck.out.Classes[c.Name] = &ClassInfo{
			Name:    c.Name,
			Decl:    c,
			Fields:  make(map[string]*FieldInfo),
			Statics: make(map[string]*FieldInfo),
			Methods: make(map[string]*MethodInfo),
		}
	}
	// Link supertypes and reject cycles.
	for _, c := range prog.Classes {
		ci := ck.out.Classes[c.Name]
		if c.Extends == "" {
			continue
		}
		sup := ck.out.Classes[c.Extends]
		if sup == nil {
			return errf(c.Pos, "class %s extends unknown class %s", c.Name, c.Extends)
		}
		ci.Super = sup
	}
	for _, c := range prog.Classes {
		seen := map[*ClassInfo]bool{}
		for x := ck.out.Classes[c.Name]; x != nil; x = x.Super {
			if seen[x] {
				return errf(c.Pos, "inheritance cycle through %s", c.Name)
			}
			seen[x] = true
		}
	}
	// Populate members in topological (supertype-first) order.
	done := map[*ClassInfo]bool{}
	var populate func(ci *ClassInfo) error
	populate = func(ci *ClassInfo) error {
		if done[ci] || ci.Decl == nil {
			done[ci] = true
			return nil
		}
		if ci.Super != nil {
			if err := populate(ci.Super); err != nil {
				return err
			}
			// Inherit instance fields, statics, and methods.
			for k, v := range ci.Super.Fields {
				ci.Fields[k] = v
			}
			ci.Layout = append(ci.Layout, ci.Super.Layout...)
			for k, v := range ci.Super.Statics {
				ci.Statics[k] = v
			}
			for k, v := range ci.Super.Methods {
				ci.Methods[k] = v
			}
		}
		for _, f := range ci.Decl.Fields {
			ty, err := ck.resolveType(f.Type)
			if err != nil {
				return err
			}
			fi := &FieldInfo{Name: f.Name, Type: ty, Class: ci, Static: f.Static}
			if f.Static {
				if _, dup := ci.Statics[f.Name]; dup && ci.Statics[f.Name].Class == ci {
					return errf(f.Pos, "static field %s redeclared", f.Name)
				}
				fi.Index = len(ci.StaticOrder)
				ci.Statics[f.Name] = fi
				ci.StaticOrder = append(ci.StaticOrder, fi)
			} else {
				if old, dup := ci.Fields[f.Name]; dup && old.Class == ci {
					return errf(f.Pos, "field %s redeclared", f.Name)
				}
				fi.Index = len(ci.Layout)
				ci.Fields[f.Name] = fi
				ci.Layout = append(ci.Layout, fi)
			}
		}
		for _, m := range ci.Decl.Methods {
			if old, dup := ci.Methods[m.Name]; dup && old.Class == ci {
				return errf(m.Pos, "method %s redeclared", m.Name)
			}
			ret, err := ck.resolveType(m.Ret)
			if err != nil {
				return err
			}
			mi := &MethodInfo{Name: m.Name, Class: ci, Static: m.Static, Ret: ret, Decl: m}
			for _, p := range m.Params {
				pt, err := ck.resolveType(p.Type)
				if err != nil {
					return err
				}
				mi.Params = append(mi.Params, pt)
			}
			if sup, overrides := ci.Methods[m.Name]; overrides && sup.Class != ci && m.Name != lang.CtorName {
				if sup.Static || mi.Static {
					return errf(m.Pos, "method %s: static methods cannot take part in overriding", m.Name)
				}
				if !sameSignature(sup, mi) {
					return errf(m.Pos, "method %s overrides %s with a different signature", m.Name, sup.QName())
				}
				mi.Overrides = sup
			}
			ci.Methods[m.Name] = mi
			ck.out.Methods = append(ck.out.Methods, mi)
		}
		done[ci] = true
		return nil
	}
	for _, c := range prog.Classes {
		if err := populate(ck.out.Classes[c.Name]); err != nil {
			return err
		}
	}
	return nil
}

func sameSignature(a, b *MethodInfo) bool {
	if a.Ret.String() != b.Ret.String() || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i].String() != b.Params[i].String() {
			return false
		}
	}
	return true
}

func (ck *checker) resolveType(t lang.TypeExpr) (Type, error) {
	var base Type
	switch t.Base {
	case "int":
		base = Int
	case "boolean":
		base = Bool
	case "void":
		if t.Dims > 0 {
			return nil, errf(t.Pos, "array of void")
		}
		return Void, nil
	default:
		if ck.out.Classes[t.Base] == nil {
			return nil, errf(t.Pos, "unknown type %s", t.Base)
		}
		base = ClassType{Name: t.Base}
	}
	if t.Dims > 0 {
		return ArrayType{Elem: base}, nil
	}
	return base, nil
}

// --- per-method checking ---

func (ck *checker) checkMethod(ci *ClassInfo, mi *MethodInfo, m *lang.Method) error {
	ck.class, ck.method = ci, mi
	ck.scopes = []map[string]int{{}}
	ck.slotTys = nil
	if !m.Static {
		ck.declare("this", ClassType{Name: ci.Name}) // slot 0
	}
	for i, p := range m.Params {
		if _, err := ck.declareChecked(p.Name, mi.Params[i], p.Pos); err != nil {
			return err
		}
	}
	if err := ck.checkBlock(m.Body); err != nil {
		return err
	}
	mi.Slots = len(ck.slotTys)
	return nil
}

func (ck *checker) declare(name string, t Type) int {
	slot := len(ck.slotTys)
	ck.scopes[len(ck.scopes)-1][name] = slot
	ck.slotTys = append(ck.slotTys, t)
	return slot
}

func (ck *checker) declareChecked(name string, t Type, pos lang.Pos) (int, error) {
	if _, dup := ck.scopes[len(ck.scopes)-1][name]; dup {
		return 0, errf(pos, "%s redeclared in this scope", name)
	}
	return ck.declare(name, t), nil
}

func (ck *checker) lookupLocal(name string) (int, bool) {
	for i := len(ck.scopes) - 1; i >= 0; i-- {
		if slot, ok := ck.scopes[i][name]; ok {
			return slot, true
		}
	}
	return 0, false
}

func (ck *checker) pushScope() { ck.scopes = append(ck.scopes, map[string]int{}) }
func (ck *checker) popScope()  { ck.scopes = ck.scopes[:len(ck.scopes)-1] }

func (ck *checker) checkBlock(b *lang.Block) error {
	ck.pushScope()
	defer ck.popScope()
	for _, s := range b.Stmts {
		if err := ck.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (ck *checker) checkStmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.Block:
		return ck.checkBlock(s)
	case *lang.If:
		if err := ck.wantType(s.Cond, Bool); err != nil {
			return err
		}
		if err := ck.checkStmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return ck.checkStmt(s.Else)
		}
		return nil
	case *lang.While:
		if err := ck.wantType(s.Cond, Bool); err != nil {
			return err
		}
		ck.loopDepth++
		defer func() { ck.loopDepth-- }()
		return ck.checkStmt(s.Body)
	case *lang.For:
		ck.pushScope()
		defer ck.popScope()
		if s.Init != nil {
			if err := ck.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := ck.wantType(s.Cond, Bool); err != nil {
				return err
			}
		}
		if s.Step != nil {
			if err := ck.checkStmt(s.Step); err != nil {
				return err
			}
		}
		ck.loopDepth++
		defer func() { ck.loopDepth-- }()
		return ck.checkStmt(s.Body)
	case *lang.Return:
		if s.E == nil {
			if _, isVoid := ck.method.Ret.(VoidType); !isVoid {
				return errf(s.Pos, "missing return value in %s", ck.method.QName())
			}
			return nil
		}
		t, err := ck.checkExpr(s.E)
		if err != nil {
			return err
		}
		if !ck.out.Assignable(ck.method.Ret, t) {
			return errf(s.Pos, "cannot return %s from %s (returns %s)", t, ck.method.QName(), ck.method.Ret)
		}
		return nil
	case *lang.Throw:
		t, err := ck.checkExpr(s.E)
		if err != nil {
			return err
		}
		if _, ok := t.(ClassType); !ok {
			return errf(s.Pos, "throw requires an object, found %s", t)
		}
		return nil
	case *lang.Synchronized:
		t, err := ck.checkExpr(s.Lock)
		if err != nil {
			return err
		}
		switch t.(type) {
		case ClassType, ArrayType:
		default:
			return errf(s.Pos, "synchronized requires an object, found %s", t)
		}
		ck.method.SyncBlocks = append(ck.method.SyncBlocks, s)
		saved := ck.loopDepth
		ck.loopDepth = 0 // break/continue may not cross the block boundary
		defer func() { ck.loopDepth = saved }()
		return ck.checkBlock(s.Body)
	case *lang.Break:
		if ck.loopDepth == 0 {
			return errf(s.Pos, "break outside a loop")
		}
		return nil
	case *lang.Continue:
		if ck.loopDepth == 0 {
			return errf(s.Pos, "continue outside a loop")
		}
		return nil
	case *lang.LocalDecl:
		t, err := ck.resolveType(s.Type)
		if err != nil {
			return err
		}
		if _, isVoid := t.(VoidType); isVoid {
			return errf(s.Pos, "variable %s cannot have type void", s.Name)
		}
		if s.Init != nil {
			it, err := ck.checkExpr(s.Init)
			if err != nil {
				return err
			}
			if !ck.out.Assignable(t, it) {
				return errf(s.Pos, "cannot initialize %s %s with %s", t, s.Name, it)
			}
		}
		slot, err := ck.declareChecked(s.Name, t, s.Pos)
		if err != nil {
			return err
		}
		ck.out.DeclSlots[s] = slot
		return nil
	case *lang.Assign:
		vt, err := ck.checkExpr(s.Value)
		if err != nil {
			return err
		}
		tt, err := ck.checkLValue(s.Target)
		if err != nil {
			return err
		}
		if !ck.out.Assignable(tt, vt) {
			return errf(s.Pos, "cannot assign %s to %s", vt, tt)
		}
		return nil
	case *lang.ExprStmt:
		_, err := ck.checkExpr(s.E)
		return err
	default:
		return errf(lang.Pos{}, "unhandled statement %T", s)
	}
}

// checkLValue type-checks an assignment target and records its resolution.
func (ck *checker) checkLValue(e lang.Expr) (Type, error) {
	switch e := e.(type) {
	case *lang.Ident, *lang.FieldAccess, *lang.Index:
		return ck.checkExpr(e)
	default:
		return nil, errf(e.Position(), "invalid assignment target")
	}
}

func (ck *checker) wantType(e lang.Expr, want Type) error {
	t, err := ck.checkExpr(e)
	if err != nil {
		return err
	}
	if t.String() != want.String() {
		return errf(e.Position(), "expected %s, found %s", want, t)
	}
	return nil
}

func (ck *checker) checkExpr(e lang.Expr) (Type, error) {
	t, err := ck.exprType(e)
	if err != nil {
		return nil, err
	}
	ck.out.ExprTypes[e] = t
	return t, nil
}

func (ck *checker) exprType(e lang.Expr) (Type, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return Int, nil
	case *lang.BoolLit:
		return Bool, nil
	case *lang.NullLit:
		return Null, nil
	case *lang.This:
		if ck.method.Static {
			return nil, errf(e.Pos, "this used in static method %s", ck.method.QName())
		}
		return ClassType{Name: ck.class.Name}, nil
	case *lang.Ident:
		if slot, ok := ck.lookupLocal(e.Name); ok {
			ck.out.Resolutions[e] = &Resolution{Kind: ResLocal, Slot: slot, Name: e.Name}
			return ck.slotTys[slot], nil
		}
		if f, ok := ck.class.Fields[e.Name]; ok && !ck.method.Static {
			ck.out.Resolutions[e] = &Resolution{Kind: ResField, Field: f, Name: e.Name}
			return f.Type, nil
		}
		if f, ok := ck.class.Statics[e.Name]; ok {
			ck.out.Resolutions[e] = &Resolution{Kind: ResStatic, Field: f, Name: e.Name}
			return f.Type, nil
		}
		if ci, ok := ck.out.Classes[e.Name]; ok {
			ck.out.Resolutions[e] = &Resolution{Kind: ResClass, Class: ci, Name: e.Name}
			return ClassType{Name: ci.Name}, nil // placeholder; only valid as receiver
		}
		return nil, errf(e.Pos, "undefined: %s", e.Name)
	case *lang.FieldAccess:
		// ClassName.field?
		if id, isID := e.X.(*lang.Ident); isID {
			if _, isLocal := ck.lookupLocal(id.Name); !isLocal {
				if ci, isClass := ck.out.Classes[id.Name]; isClass {
					f, ok := ci.Statics[e.Name]
					if !ok {
						return nil, errf(e.Pos, "class %s has no static field %s", ci.Name, e.Name)
					}
					ck.out.Resolutions[e] = &Resolution{Kind: ResStatic, Field: f, Name: e.Name}
					ck.out.Resolutions[id] = &Resolution{Kind: ResClass, Class: ci, Name: id.Name}
					ck.out.ExprTypes[id] = ClassType{Name: ci.Name}
					return f.Type, nil
				}
			}
		}
		xt, err := ck.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		if at, isArr := xt.(ArrayType); isArr {
			if e.Name != "length" {
				return nil, errf(e.Pos, "arrays have no field %s", e.Name)
			}
			_ = at
			ck.out.Resolutions[e] = &Resolution{Kind: ResField, Name: "length"}
			return Int, nil
		}
		ct, ok := xt.(ClassType)
		if !ok {
			return nil, errf(e.Pos, "field access on non-object %s", xt)
		}
		ci := ck.out.Classes[ct.Name]
		f, ok := ci.Fields[e.Name]
		if !ok {
			return nil, errf(e.Pos, "class %s has no field %s", ci.Name, e.Name)
		}
		ck.out.Resolutions[e] = &Resolution{Kind: ResField, Field: f, Name: e.Name}
		return f.Type, nil
	case *lang.Index:
		xt, err := ck.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		at, ok := xt.(ArrayType)
		if !ok {
			return nil, errf(e.Pos, "indexing non-array %s", xt)
		}
		if err := ck.wantType(e.I, Int); err != nil {
			return nil, err
		}
		return at.Elem, nil
	case *lang.Call:
		return ck.checkCall(e)
	case *lang.New:
		ci := ck.out.Classes[e.Class]
		if ci == nil {
			return nil, errf(e.Pos, "unknown class %s", e.Class)
		}
		ctor := ci.Methods[lang.CtorName]
		if ctor != nil && ctor.Class != ci {
			ctor = nil // constructors are not inherited
		}
		if ctor == nil {
			if len(e.Args) != 0 {
				return nil, errf(e.Pos, "class %s has no constructor but new has %d argument(s)", e.Class, len(e.Args))
			}
			return ClassType{Name: e.Class}, nil
		}
		if len(e.Args) != len(ctor.Params) {
			return nil, errf(e.Pos, "constructor %s takes %d argument(s), got %d", e.Class, len(ctor.Params), len(e.Args))
		}
		for i, a := range e.Args {
			at, err := ck.checkExpr(a)
			if err != nil {
				return nil, err
			}
			if !ck.out.Assignable(ctor.Params[i], at) {
				return nil, errf(a.Position(), "constructor argument %d: expected %s, found %s", i+1, ctor.Params[i], at)
			}
		}
		return ClassType{Name: e.Class}, nil
	case *lang.NewArray:
		elem, err := ck.resolveType(lang.TypeExpr{Base: e.Elem.Base, Pos: e.Elem.Pos})
		if err != nil {
			return nil, err
		}
		if err := ck.wantType(e.Len, Int); err != nil {
			return nil, err
		}
		return ArrayType{Elem: elem}, nil
	case *lang.Binary:
		return ck.checkBinary(e)
	case *lang.Unary:
		switch e.Op {
		case lang.Minus:
			if err := ck.wantType(e.X, Int); err != nil {
				return nil, err
			}
			return Int, nil
		case lang.Not:
			if err := ck.wantType(e.X, Bool); err != nil {
				return nil, err
			}
			return Bool, nil
		}
		return nil, errf(e.Pos, "bad unary operator")
	default:
		return nil, errf(e.Position(), "unhandled expression %T", e)
	}
}

func (ck *checker) checkBinary(e *lang.Binary) (Type, error) {
	switch e.Op {
	case lang.Plus, lang.Minus, lang.Star, lang.Slash, lang.Percent:
		if err := ck.wantType(e.L, Int); err != nil {
			return nil, err
		}
		if err := ck.wantType(e.R, Int); err != nil {
			return nil, err
		}
		return Int, nil
	case lang.Lt, lang.Le, lang.Gt, lang.Ge:
		if err := ck.wantType(e.L, Int); err != nil {
			return nil, err
		}
		if err := ck.wantType(e.R, Int); err != nil {
			return nil, err
		}
		return Bool, nil
	case lang.AndAnd, lang.OrOr:
		if err := ck.wantType(e.L, Bool); err != nil {
			return nil, err
		}
		if err := ck.wantType(e.R, Bool); err != nil {
			return nil, err
		}
		return Bool, nil
	case lang.EqEq, lang.NotEq:
		lt, err := ck.checkExpr(e.L)
		if err != nil {
			return nil, err
		}
		rt, err := ck.checkExpr(e.R)
		if err != nil {
			return nil, err
		}
		if !ck.out.Assignable(lt, rt) && !ck.out.Assignable(rt, lt) {
			return nil, errf(e.Pos, "incomparable types %s and %s", lt, rt)
		}
		return Bool, nil
	}
	return nil, errf(e.Pos, "bad binary operator")
}

// Builtins available as bare calls.
var builtinSigs = map[string]struct {
	params []Type
	ret    Type
	// sideEffect marks builtins that are side effects for the read-only
	// analysis (print writes to the outside world).
	sideEffect bool
}{
	"print": {params: []Type{Int}, ret: Void, sideEffect: true},
}

// objectBuiltins are Object's monitor methods, available on every
// reference unless the class declares a method of the same name. All are
// side effects, so blocks containing them never classify read-only —
// exactly the paper's exclusion of wait/notify from elidable sections.
var objectBuiltins = map[string]bool{
	"wait":      true,
	"notify":    true,
	"notifyAll": true,
}

// BuiltinHasSideEffect reports whether builtin name is a side effect.
func BuiltinHasSideEffect(name string) bool {
	if objectBuiltins[name] {
		return true
	}
	b, ok := builtinSigs[name]
	return ok && b.sideEffect
}

func (ck *checker) checkCall(e *lang.Call) (Type, error) {
	// Bare call: builtin or implicit-this method.
	if e.Recv == nil {
		if sig, ok := builtinSigs[e.Name]; ok {
			if len(e.Args) != len(sig.params) {
				return nil, errf(e.Pos, "%s takes %d argument(s)", e.Name, len(sig.params))
			}
			for i, a := range e.Args {
				at, err := ck.checkExpr(a)
				if err != nil {
					return nil, err
				}
				if !ck.out.Assignable(sig.params[i], at) {
					return nil, errf(a.Position(), "argument %d of %s: expected %s, found %s", i+1, e.Name, sig.params[i], at)
				}
			}
			ck.out.Calls[e] = &CallInfo{Builtin: e.Name}
			return sig.ret, nil
		}
		mi := ck.class.Methods[e.Name]
		if mi == nil {
			if objectBuiltins[e.Name] {
				if ck.method.Static {
					return nil, errf(e.Pos, "%s() requires an instance context", e.Name)
				}
				if len(e.Args) != 0 {
					return nil, errf(e.Pos, "%s takes no arguments", e.Name)
				}
				ck.out.Calls[e] = &CallInfo{Builtin: e.Name}
				return Void, nil
			}
			return nil, errf(e.Pos, "undefined method %s", e.Name)
		}
		if !mi.Static && ck.method.Static {
			return nil, errf(e.Pos, "instance method %s called from static context", e.Name)
		}
		return ck.checkResolvedCall(e, mi, false)
	}
	// ClassName.m(...) static call?
	if id, isID := e.Recv.(*lang.Ident); isID {
		if _, isLocal := ck.lookupLocal(id.Name); !isLocal {
			if ci, isClass := ck.out.Classes[id.Name]; isClass {
				mi := ci.Methods[e.Name]
				if mi == nil {
					return nil, errf(e.Pos, "class %s has no method %s", ci.Name, e.Name)
				}
				if !mi.Static {
					return nil, errf(e.Pos, "instance method %s accessed through class name", mi.QName())
				}
				ck.out.Resolutions[id] = &Resolution{Kind: ResClass, Class: ci, Name: id.Name}
				ck.out.ExprTypes[id] = ClassType{Name: ci.Name}
				return ck.checkResolvedCall(e, mi, true)
			}
		}
	}
	rt, err := ck.checkExpr(e.Recv)
	if err != nil {
		return nil, err
	}
	ct, ok := rt.(ClassType)
	if !ok {
		return nil, errf(e.Pos, "method call on non-object %s", rt)
	}
	ci := ck.out.Classes[ct.Name]
	mi := ci.Methods[e.Name]
	if mi == nil {
		if objectBuiltins[e.Name] {
			if len(e.Args) != 0 {
				return nil, errf(e.Pos, "%s takes no arguments", e.Name)
			}
			ck.out.Calls[e] = &CallInfo{Builtin: e.Name}
			return Void, nil
		}
		return nil, errf(e.Pos, "class %s has no method %s", ci.Name, e.Name)
	}
	if mi.Static {
		return nil, errf(e.Pos, "static method %s called through an instance", mi.QName())
	}
	return ck.checkResolvedCall(e, mi, false)
}

func (ck *checker) checkResolvedCall(e *lang.Call, mi *MethodInfo, recvIsClass bool) (Type, error) {
	if len(e.Args) != len(mi.Params) {
		return nil, errf(e.Pos, "%s takes %d argument(s), got %d", mi.QName(), len(mi.Params), len(e.Args))
	}
	for i, a := range e.Args {
		at, err := ck.checkExpr(a)
		if err != nil {
			return nil, err
		}
		if !ck.out.Assignable(mi.Params[i], at) {
			return nil, errf(a.Position(), "argument %d of %s: expected %s, found %s", i+1, mi.QName(), mi.Params[i], at)
		}
	}
	ck.out.Calls[e] = &CallInfo{Target: mi, RecvIsClass: recvIsClass}
	return mi.Ret, nil
}
