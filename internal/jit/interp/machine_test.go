package interp

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/jit/codegen"
	"repro/internal/jit/ir"
	"repro/internal/jthread"
)

func machineFor(t *testing.T, src string, opts Options) (*Machine, *jthread.Thread) {
	t.Helper()
	prog := jit.MustBuild(src, codegen.DefaultOptions)
	vm := jthread.NewVM()
	m := NewMachine(prog, vm, opts)
	return m, vm.Attach("main")
}

func TestArithmeticAndControlFlow(t *testing.T) {
	m, th := machineFor(t, `class A {
		static int fib(int n) {
			if (n < 2) { return n; }
			int a = 0;
			int b = 1;
			for (int i = 2; i <= n; i = i + 1) {
				int c = a + b;
				a = b;
				b = c;
			}
			return b;
		}
		static int mix(int x) { return (x * 3 - 1) / 2 % 7; }
		static boolean logic(boolean a, boolean b) { return a && !b || a == b; }
	}`, Options{})
	if v := m.MustCall(th, "A", "fib", IntVal(10)); v.I != 55 {
		t.Fatalf("fib(10) = %d", v.I)
	}
	if v := m.MustCall(th, "A", "mix", IntVal(9)); v.I != (9*3-1)/2%7 {
		t.Fatalf("mix = %d", v.I)
	}
	if v := m.MustCall(th, "A", "logic", BoolVal(true), BoolVal(false)); !v.Bool() {
		t.Fatalf("logic wrong")
	}
	if v := m.MustCall(th, "A", "logic", BoolVal(false), BoolVal(true)); v.Bool() {
		t.Fatalf("logic wrong 2")
	}
}

func TestFieldsAndObjects(t *testing.T) {
	m, th := machineFor(t, `class Point {
		int x, y;
		void set(int a, int b) { x = a; y = b; }
		int sum() { return x + y; }
		static Point make(int a, int b) { Point p = new Point(); p.set(a, b); return p; }
	}`, Options{})
	p := m.MustCall(th, "Point", "make", IntVal(3), IntVal(4))
	if p.Kind != KObj {
		t.Fatalf("make returned %v", p)
	}
	if v := m.MustCall(th, "Point", "sum", p); v.I != 7 {
		t.Fatalf("sum = %d", v.I)
	}
	x, _ := p.Obj.FieldByName("x")
	if x.I != 3 {
		t.Fatalf("field x = %v", x)
	}
}

func TestStaticsSharedAcrossInstances(t *testing.T) {
	m, th := machineFor(t, `class C {
		static int count;
		void bump() { C.count = C.count + 1; }
	}`, Options{})
	obj, _ := m.NewInstance("C")
	for i := 0; i < 5; i++ {
		m.MustCall(th, "C", "bump", ObjVal(obj))
	}
	v, ok := m.Static("C", "count")
	if !ok || v.I != 5 {
		t.Fatalf("static count = %v %v", v, ok)
	}
}

func TestArrays(t *testing.T) {
	m, th := machineFor(t, `class A {
		static int sum(int n) {
			int[] xs = new int[n];
			for (int i = 0; i < n; i = i + 1) { xs[i] = i; }
			int s = 0;
			for (int i = 0; i < xs.length; i = i + 1) { s = s + xs[i]; }
			return s;
		}
	}`, Options{})
	if v := m.MustCall(th, "A", "sum", IntVal(10)); v.I != 45 {
		t.Fatalf("sum = %d", v.I)
	}
}

func TestVirtualDispatch(t *testing.T) {
	m, th := machineFor(t, `
class Shape { int area() { return 0; } }
class Square extends Shape { int s; int area() { return s * s; } }
class Driver {
	static int run() {
		Square q = new Square();
		q.s = 5;
		Shape sh = q;
		return sh.area();
	}
}`, Options{})
	if v := m.MustCall(th, "Driver", "run"); v.I != 25 {
		t.Fatalf("virtual dispatch = %d", v.I)
	}
}

func TestRuntimeFaults(t *testing.T) {
	m, th := machineFor(t, `class A {
		static int npe(A a) { return a.f; }
		int f;
		static int div(int a, int b) { return a / b; }
		static int mod(int a, int b) { return a % b; }
		static int oob(int i) { int[] xs = new int[2]; return xs[i]; }
		static int neg() { int[] xs = new int[0 - 1]; return 0; }
		static int callnull(A a) { return a.get(); }
		int get() { return f; }
	}`, Options{})
	cases := []struct {
		method string
		args   []Value
		want   string
	}{
		{"npe", []Value{NullVal()}, "NullPointerException"},
		{"div", []Value{IntVal(1), IntVal(0)}, "ArithmeticException"},
		{"mod", []Value{IntVal(1), IntVal(0)}, "ArithmeticException"},
		{"oob", []Value{IntVal(5)}, "ArrayIndexOutOfBoundsException"},
		{"oob", []Value{IntVal(-1)}, "ArrayIndexOutOfBoundsException"},
		{"neg", nil, "ArrayIndexOutOfBoundsException"},
		{"callnull", []Value{NullVal()}, "NullPointerException"},
	}
	for _, c := range cases {
		_, err := m.Call(th, "A", c.method, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %s", c.method, err, c.want)
		}
	}
}

func TestUserThrowAndExceptionClasses(t *testing.T) {
	m, th := machineFor(t, `class MyError extends RuntimeException { }
class A { static int f(int x) {
	if (x < 0) { throw new MyError(); }
	return x;
} }`, Options{})
	if v := m.MustCall(th, "A", "f", IntVal(3)); v.I != 3 {
		t.Fatalf("f(3) = %d", v.I)
	}
	_, err := m.Call(th, "A", "f", IntVal(-1))
	if err == nil || !strings.Contains(err.Error(), "MyError") {
		t.Fatalf("err = %v", err)
	}
}

func TestPrintBuiltin(t *testing.T) {
	var buf bytes.Buffer
	prog := jit.MustBuild(`class A { static void f() { print(7); print(8); } }`, codegen.DefaultOptions)
	vm := jthread.NewVM()
	m := NewMachine(prog, vm, Options{Out: &buf})
	th := vm.Attach("main")
	m.MustCall(th, "A", "f")
	if got := buf.String(); got != "7\n8\n" {
		t.Fatalf("print output = %q", got)
	}
}

func TestMissingReturnFaults(t *testing.T) {
	m, th := machineFor(t, `class A { static int f(boolean b) { if (b) { return 1; } } }`, Options{})
	if v := m.MustCall(th, "A", "f", BoolVal(true)); v.I != 1 {
		t.Fatalf("f(true) = %d", v.I)
	}
	_, err := m.Call(th, "A", "f", BoolVal(false))
	if err == nil || !strings.Contains(err.Error(), "IllegalStateException") {
		t.Fatalf("missing return: err = %v", err)
	}
}

const counterSrc = `
class Counter {
	int value;
	int get() { synchronized (this) { return value; } }
	void inc() { synchronized (this) { value = value + 1; } }
	int getViaReturn() { synchronized (this) { if (value > 10) { return 10; } return value; } }
}
`

func TestSyncBlockPlansAssigned(t *testing.T) {
	prog := jit.MustBuild(counterSrc, codegen.DefaultOptions)
	get := prog.MethodByName("Counter", "get")
	if get.Syncs[0].Plan != ir.PlanElide {
		t.Fatalf("get plan = %v", get.Syncs[0].Plan)
	}
	inc := prog.MethodByName("Counter", "inc")
	if inc.Syncs[0].Plan != ir.PlanWrite {
		t.Fatalf("inc plan = %v", inc.Syncs[0].Plan)
	}
}

func TestSyncExecutionAllProtocols(t *testing.T) {
	for _, proto := range []Protocol{ProtoSolero, ProtoConventional, ProtoRWLock} {
		t.Run(proto.String(), func(t *testing.T) {
			m, th := machineFor(t, counterSrc, Options{Protocol: proto})
			obj, _ := m.NewInstance("Counter")
			recv := ObjVal(obj)
			for i := 0; i < 10; i++ {
				m.MustCall(th, "Counter", "inc", recv)
			}
			if v := m.MustCall(th, "Counter", "get", recv); v.I != 10 {
				t.Fatalf("get = %d", v.I)
			}
			if v := m.MustCall(th, "Counter", "getViaReturn", recv); v.I != 10 {
				t.Fatalf("getViaReturn = %d", v.I)
			}
		})
	}
}

func TestReturnInsideSyncReturnsFromMethod(t *testing.T) {
	m, th := machineFor(t, `class A {
		int x;
		int f() {
			synchronized (this) { return 42; }
		}
		int g() {
			synchronized (this) { if (x == 0) { return 1; } }
			return 2;
		}
	}`, Options{})
	obj, _ := m.NewInstance("A")
	if v := m.MustCall(th, "A", "f", ObjVal(obj)); v.I != 42 {
		t.Fatalf("f = %d", v.I)
	}
	if v := m.MustCall(th, "A", "g", ObjVal(obj)); v.I != 1 {
		t.Fatalf("g = %d", v.I)
	}
	obj.SetField(obj.Class.Fields["x"].Index, IntVal(9))
	if v := m.MustCall(th, "A", "g", ObjVal(obj)); v.I != 2 {
		t.Fatalf("g after x=9 = %d (fall-through of sync body broken)", v.I)
	}
}

func TestElidedGetDoesNotTouchLockWord(t *testing.T) {
	m, th := machineFor(t, counterSrc, Options{Protocol: ProtoSolero, LockCfg: core.CountedConfig(nil)})
	obj, _ := m.NewInstance("Counter")
	recv := ObjVal(obj)
	m.MustCall(th, "Counter", "inc", recv)
	lk := obj.SoleroLock(m.Options().LockCfg)
	before := lk.Word()
	for i := 0; i < 100; i++ {
		m.MustCall(th, "Counter", "get", recv)
	}
	if lk.Word() != before {
		t.Fatalf("elided gets changed the lock word")
	}
	if lk.Stats().ElisionSuccesses.Load() != 100 {
		t.Fatalf("elisions = %d", lk.Stats().ElisionSuccesses.Load())
	}
}

func TestConcurrentCountersAllProtocols(t *testing.T) {
	for _, proto := range []Protocol{ProtoSolero, ProtoConventional, ProtoRWLock} {
		t.Run(proto.String(), func(t *testing.T) {
			prog := jit.MustBuild(counterSrc, codegen.DefaultOptions)
			vm := jthread.NewVM()
			m := NewMachine(prog, vm, Options{Protocol: proto})
			obj, _ := m.NewInstance("Counter")
			recv := ObjVal(obj)
			var wg sync.WaitGroup
			const workers, per = 6, 1000
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := vm.Attach("w")
					defer th.Detach()
					for i := 0; i < per; i++ {
						m.MustCall(th, "Counter", "inc", recv)
						m.MustCall(th, "Counter", "get", recv)
					}
				}()
			}
			wg.Wait()
			th := vm.Attach("checker")
			if v := m.MustCall(th, "Counter", "get", recv); v.I != workers*per {
				t.Fatalf("count = %d, want %d", v.I, workers*per)
			}
		})
	}
}

const pairSrc = `
class Pair {
	int a, b;
	void bump() { synchronized (this) { a = a + 1; b = b + 1; } }
	int diff() { synchronized (this) { return a - b; } }
}
`

// TestInterpretedReadersNeverSeeTornPairs is the end-to-end version of the
// core consistency property: compiled read-only blocks racing compiled
// writing blocks must never observe a torn pair.
func TestInterpretedReadersNeverSeeTornPairs(t *testing.T) {
	prog := jit.MustBuild(pairSrc, codegen.DefaultOptions)
	if prog.MethodByName("Pair", "diff").Syncs[0].Plan != ir.PlanElide {
		t.Fatalf("diff not classified for elision")
	}
	vm := jthread.NewVM()
	m := NewMachine(prog, vm, Options{Protocol: ProtoSolero})
	obj, _ := m.NewInstance("Pair")
	recv := ObjVal(obj)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := vm.Attach("writer")
		defer th.Detach()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.MustCall(th, "Pair", "bump", recv)
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			th := vm.Attach("reader")
			defer th.Detach()
			for i := 0; i < 3000; i++ {
				if v := m.MustCall(th, "Pair", "diff", recv); v.I != 0 {
					t.Errorf("torn pair observed: diff = %d", v.I)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestSpeculativeFaultRecovery compiles the paper's recovery scenario: a
// reader chases a pointer that a writer nulls out; the induced NPE inside a
// speculative section must be suppressed and retried, never surfacing to
// the caller while the data is consistent at retry time.
func TestSpeculativeFaultRecovery(t *testing.T) {
	src := `
class Node { int val; }
class Box {
	Node node;
	int readVal() { synchronized (this) { return node.val; } }
	void set(Node n) { synchronized (this) { node = n; } }
}
`
	prog := jit.MustBuild(src, codegen.DefaultOptions)
	if prog.MethodByName("Box", "readVal").Syncs[0].Plan != ir.PlanElide {
		t.Fatalf("readVal not elidable")
	}
	vm := jthread.NewVM()
	m := NewMachine(prog, vm, Options{Protocol: ProtoSolero, LockCfg: core.CountedConfig(nil)})
	box, _ := m.NewInstance("Box")
	node, _ := m.NewInstance("Node")
	node.SetField(0, IntVal(7))
	recv := ObjVal(box)
	th := vm.Attach("main")
	m.MustCall(th, "Box", "set", recv, ObjVal(node))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := vm.Attach("writer")
		defer w.Detach()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Flip node between null and a real node: readers can
			// speculatively observe the null and fault.
			m.MustCall(w, "Box", "set", recv, NullVal())
			m.MustCall(w, "Box", "set", recv, ObjVal(node))
		}
	}()
	var readers sync.WaitGroup
	var npes, oks, both int
	var mu sync.Mutex
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			th := vm.Attach("reader")
			defer th.Detach()
			for i := 0; i < 4000; i++ {
				v, err := m.Call(th, "Box", "readVal", recv)
				mu.Lock()
				if err != nil {
					// A genuine NPE: the node really was null at
					// a consistent point. Legal.
					if !strings.Contains(err.Error(), "NullPointerException") {
						t.Errorf("unexpected error %v", err)
					}
					npes++
				} else if v.I == 7 {
					oks++
				} else {
					t.Errorf("impossible value %d", v.I)
				}
				both++
				mu.Unlock()
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	// Deterministic tail: with the writer stopped and the node restored,
	// a read must succeed with the consistent value.
	m.MustCall(th, "Box", "set", recv, ObjVal(node))
	if v := m.MustCall(th, "Box", "readVal", recv); v.I != 7 {
		t.Fatalf("final read = %d, want 7", v.I)
	}
	if oks == 0 {
		// On a single-CPU box the scheduler can park the writer in the
		// null phase for the whole run; every read then sees a genuine
		// NPE. That is legal — only torn values are not.
		t.Logf("no overlapping successful reads this run (npes=%d)", npes)
	}
	// Suppressed faults should have occurred and been retried.
	lk := box.SoleroLock(m.Options().LockCfg)
	t.Logf("oks=%d genuine npes=%d suppressed=%d elisions=%d",
		oks, npes, lk.Stats().SuppressedFaults.Load(), lk.Stats().ElisionSuccesses.Load())
}

func TestReadMostlyPlanExecutes(t *testing.T) {
	src := `
class Cache {
	int hits;
	int val;
	int get(int probe) {
		synchronized (this) {
			if (probe > 0) { hits = hits + 1; }
			return val;
		}
	}
}
`
	prog := jit.MustBuild(src, codegen.DefaultOptions)
	cm := prog.MethodByName("Cache", "get")
	if cm.Syncs[0].Plan != ir.PlanReadMostly {
		t.Fatalf("plan = %v", cm.Syncs[0].Plan)
	}
	vm := jthread.NewVM()
	m := NewMachine(prog, vm, Options{Protocol: ProtoSolero, LockCfg: core.CountedConfig(nil)})
	obj, _ := m.NewInstance("Cache")
	recv := ObjVal(obj)
	th := vm.Attach("main")
	// Non-writing executions elide.
	for i := 0; i < 50; i++ {
		m.MustCall(th, "Cache", "get", recv, IntVal(0))
	}
	// Writing executions upgrade.
	for i := 0; i < 5; i++ {
		m.MustCall(th, "Cache", "get", recv, IntVal(1))
	}
	hits, _ := obj.FieldByName("hits")
	if hits.I != 5 {
		t.Fatalf("hits = %d", hits.I)
	}
	lk := obj.SoleroLock(m.Options().LockCfg)
	if lk.Stats().Upgrades.Load() == 0 {
		t.Fatalf("no upgrades recorded")
	}
	if lk.Stats().ElisionSuccesses.Load() < 50 {
		t.Fatalf("non-writing executions did not elide: %d", lk.Stats().ElisionSuccesses.Load())
	}
}

func TestCheckpointBreaksInfiniteLoopFromStaleRead(t *testing.T) {
	// A reader loops while a speculatively-read flag stays true; a writer
	// flips the flag. If the reader's snapshot went stale, only the
	// back-edge checkpoint can break the loop.
	src := `
class Spin {
	boolean go;
	int spin() {
		synchronized (this) {
			int n = 0;
			while (go) { n = n + 1; }
			return n;
		}
	}
	void setGo(boolean v) { synchronized (this) { go = v; } }
}
`
	prog := jit.MustBuild(src, codegen.DefaultOptions)
	if prog.MethodByName("Spin", "spin").Syncs[0].Plan != ir.PlanElide {
		t.Fatalf("spin not elidable")
	}
	vm := jthread.NewVM()
	m := NewMachine(prog, vm, Options{Protocol: ProtoSolero})
	obj, _ := m.NewInstance("Spin")
	recv := ObjVal(obj)
	main := vm.Attach("main")
	m.MustCall(main, "Spin", "setGo", recv, BoolVal(true))

	// Reader starts while go == true — it will loop. The writer flips go
	// to false; the reader's elided section is now stale AND the flag it
	// cached... is re-read each iteration through the atomic cell, so it
	// exits naturally here. To force the paper's pathological case we
	// instead rely on the checkpoint machinery being exercised: poke the
	// VM continuously while the reader runs.
	done := make(chan int64, 1)
	go func() {
		th := vm.Attach("reader")
		defer th.Detach()
		v := m.MustCall(th, "Spin", "spin", recv)
		done <- v.I
	}()
	// Let the reader enter the loop, then flip the flag (which also
	// invalidates the reader's speculation) and keep delivering async
	// events so checkpoint validation fires.
	m.MustCall(main, "Spin", "setGo", recv, BoolVal(false))
	for {
		select {
		case <-done:
			return
		default:
			vm.PokeAll()
		}
	}
}
