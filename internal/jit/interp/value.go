// Package interp executes compiled mini-Java programs under a configurable
// lock protocol — the managed-runtime half of the JIT substrate. Each
// object carries a lock usable as a SOLERO lock, a conventional tasuki
// lock, or a read-write lock, so the same compiled program runs under each
// of the paper's three configurations.
//
// The interpreter honors the codegen contracts: synchronized blocks execute
// under the lock plan stamped on them, loop back-edges and method entries
// run asynchronous check points, heap-write opcodes trigger the read-mostly
// upgrade hook, and runtime faults (null dereference, division by zero,
// array bounds) raise Java-style exceptions that the SOLERO recovery
// machinery classifies as genuine or speculation-induced.
package interp

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/jit/sema"
	"repro/internal/rwlock"
	"repro/internal/vmlock"
)

// Kind tags a Value.
type Kind uint8

// Value kinds.
const (
	KNull Kind = iota
	KInt
	KBool
	KObj
	KArr
)

// Value is a runtime value. Values are immutable once stored into a shared
// cell (cells hold *Value atomically), which keeps racing speculative
// readers within the Go memory model.
type Value struct {
	Kind Kind
	I    int64 // KInt payload; KBool uses 0/1
	Obj  *Object
	Arr  *Array
}

// Convenience constructors.
func IntVal(v int64) Value { return Value{Kind: KInt, I: v} }
func BoolVal(b bool) Value {
	v := Value{Kind: KBool}
	if b {
		v.I = 1
	}
	return v
}
func NullVal() Value         { return Value{Kind: KNull} }
func ObjVal(o *Object) Value { return Value{Kind: KObj, Obj: o} }
func ArrVal(a *Array) Value  { return Value{Kind: KArr, Arr: a} }

// Bool reports the truth of a KBool value.
func (v Value) Bool() bool { return v.I != 0 }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.Kind == KNull }

// Equal is Java == semantics: identity for references, value for
// primitives.
func (v Value) Equal(o Value) bool {
	if v.Kind == KNull || o.Kind == KNull {
		return v.Kind == o.Kind
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KInt, KBool:
		return v.I == o.I
	case KObj:
		return v.Obj == o.Obj
	case KArr:
		return v.Arr == o.Arr
	default:
		return false
	}
}

// String renders the value for print and diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "null"
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KObj:
		return fmt.Sprintf("%s@%p", v.Obj.Class.Name, v.Obj)
	case KArr:
		return fmt.Sprintf("array[%d]", len(v.Arr.elems))
	default:
		return "?"
	}
}

// cell is one shared mutable slot (field, static, array element).
type cell = atomic.Pointer[Value]

var zeroValue = Value{}

func loadCell(c *cell) Value {
	if p := c.Load(); p != nil {
		return *p
	}
	return zeroValue
}

func storeCell(c *cell, v Value) {
	vv := v
	c.Store(&vv)
}

// lockSet lazily materializes each protocol's lock for an object. The
// paper's lock word lives in the object header; here each protocol gets its
// own instance so one program run can't contaminate another's statistics.
type lockSet struct {
	solero atomic.Pointer[core.Lock]
	conv   atomic.Pointer[vmlock.Lock]
	rw     atomic.Pointer[rwlock.RWLock]
}

func (ls *lockSet) soleroLock(cfg *core.Config) *core.Lock {
	if l := ls.solero.Load(); l != nil {
		return l
	}
	l := core.New(cfg)
	if ls.solero.CompareAndSwap(nil, l) {
		return l
	}
	return ls.solero.Load()
}

func (ls *lockSet) convLock(cfg *vmlock.Config) *vmlock.Lock {
	if l := ls.conv.Load(); l != nil {
		return l
	}
	l := vmlock.New(cfg)
	if ls.conv.CompareAndSwap(nil, l) {
		return l
	}
	return ls.conv.Load()
}

func (ls *lockSet) rwLock() *rwlock.RWLock {
	if l := ls.rw.Load(); l != nil {
		return l
	}
	l := &rwlock.RWLock{}
	if ls.rw.CompareAndSwap(nil, l) {
		return l
	}
	return ls.rw.Load()
}

// Object is a heap object: a class reference plus atomic field cells and
// the per-object locks.
type Object struct {
	Class  *sema.ClassInfo
	fields []cell
	locks  lockSet
}

// NewObject allocates an instance of ci with typed default field values
// (0, false, null), as the JVM zero-initializes objects.
func NewObject(ci *sema.ClassInfo) *Object {
	o := &Object{Class: ci, fields: make([]cell, len(ci.Layout))}
	for i, f := range ci.Layout {
		storeCell(&o.fields[i], DefaultFor(f.Type))
	}
	return o
}

// DefaultFor returns the JVM default value of a type: 0 for int, false for
// boolean, null for references and arrays.
func DefaultFor(t sema.Type) Value {
	switch t.(type) {
	case sema.IntType:
		return IntVal(0)
	case sema.BoolType:
		return BoolVal(false)
	default:
		return NullVal()
	}
}

// Field loads field index i.
func (o *Object) Field(i int) Value { return loadCell(&o.fields[i]) }

// SetField stores field index i.
func (o *Object) SetField(i int, v Value) { storeCell(&o.fields[i], v) }

// FieldByName loads a field by name (tests and tooling).
func (o *Object) FieldByName(name string) (Value, bool) {
	f, ok := o.Class.Fields[name]
	if !ok {
		return Value{}, false
	}
	return o.Field(f.Index), true
}

// SoleroLock exposes the object's SOLERO lock (benchmarks read its stats).
func (o *Object) SoleroLock(cfg *core.Config) *core.Lock { return o.locks.soleroLock(cfg) }

// RWLock exposes the object's read-write lock.
func (o *Object) RWLock() *rwlock.RWLock { return o.locks.rwLock() }

// Array is a heap array with atomic element cells.
type Array struct {
	elems []cell
	locks lockSet
}

// NewArray allocates an array of n copies of the default value def.
func NewArray(n int, def Value) *Array {
	a := &Array{elems: make([]cell, n)}
	for i := range a.elems {
		storeCell(&a.elems[i], def)
	}
	return a
}

// Len returns the element count.
func (a *Array) Len() int { return len(a.elems) }

// Elem loads element i (caller checks bounds).
func (a *Array) Elem(i int) Value { return loadCell(&a.elems[i]) }

// SetElem stores element i (caller checks bounds).
func (a *Array) SetElem(i int, v Value) { storeCell(&a.elems[i], v) }

// JavaException is the panic payload of a thrown exception: either a user
// `throw` or an implicit runtime fault.
type JavaException struct {
	Obj *Object
	Msg string
}

// Error implements error.
func (e *JavaException) Error() string {
	if e.Msg != "" {
		return e.Obj.Class.Name + ": " + e.Msg
	}
	return e.Obj.Class.Name
}
