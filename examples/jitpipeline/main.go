// End-to-end JIT pipeline: compile a mini-Java program, let the analysis
// classify its synchronized blocks (§3.2), then execute it concurrently
// under all three lock protocols and compare the lock statistics.
//
//	go run ./examples/jitpipeline
package main

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/jit/codegen"
	"repro/internal/jit/interp"
	"repro/internal/jit/ir"
	"repro/internal/jthread"
)

const src = `
class Account {
	int balance;
	Account next;   // accounts form a ring for the audit walk

	int getBalance() {
		synchronized (this) { return balance; }
	}

	void deposit(int amount) {
		synchronized (this) { balance = balance + amount; }
	}

	// Walks the ring: pointer chasing + a loop inside a read-only
	// section — the workload class raw seqlocks cannot support. A torn
	// snapshot could fault or loop; the generated catch block and the
	// back-edge checkpoints recover (§3.3).
	int auditRing(int hops) {
		synchronized (this) {
			int sum = 0;
			Account cur = this;
			for (int i = 0; i < hops; i = i + 1) {
				sum = sum + cur.balance;
				cur = cur.next;
			}
			return sum;
		}
	}
}
`

const (
	ringSize   = 8
	writers    = 2
	readers    = 2
	writesEach = 2000
	readsEach  = 3000
)

func main() {
	prog, res, rep, err := jit.Build(src, codegen.DefaultOptions)
	if err != nil {
		panic(err)
	}
	fmt.Println("classification:")
	for _, br := range res.Order {
		fmt.Printf("  %-22s -> %s\n", br.Method.QName(), br.Class)
	}
	fmt.Printf("plans: %d elided, %d read-mostly, %d writing\n\n",
		rep.Elided, rep.ReadMostly, rep.Writing)

	for _, proto := range []interp.Protocol{interp.ProtoConventional, interp.ProtoRWLock, interp.ProtoSolero} {
		runUnder(prog, proto)
	}
}

func runUnder(prog *ir.Program, proto interp.Protocol) {
	vm := jthread.NewVM()
	// Counted SOLERO locks, so the elision counters printed below are kept.
	m := interp.NewMachine(prog, vm, interp.Options{Protocol: proto, LockCfg: core.CountedConfig(nil)})

	// Build the ring of accounts.
	ring := make([]*interp.Object, ringSize)
	for i := range ring {
		obj, err := m.NewInstance("Account")
		if err != nil {
			panic(err)
		}
		ring[i] = obj
	}
	nextField := ring[0].Class.Fields["next"].Index
	for i, obj := range ring {
		obj.SetField(nextField, interp.ObjVal(ring[(i+1)%ringSize]))
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := vm.Attach("writer")
			defer t.Detach()
			for i := 0; i < writesEach; i++ {
				acct := ring[(w+i)%ringSize]
				m.MustCall(t, "Account", "deposit", interp.ObjVal(acct), interp.IntVal(1))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t := vm.Attach("reader")
			defer t.Detach()
			for i := 0; i < readsEach; i++ {
				m.MustCall(t, "Account", "auditRing",
					interp.ObjVal(ring[(r+i)%ringSize]), interp.IntVal(ringSize))
			}
		}(r)
	}
	wg.Wait()

	// Conservation: total deposited must equal the final audited sum.
	t := vm.Attach("auditor")
	total := m.MustCall(t, "Account", "auditRing", interp.ObjVal(ring[0]), interp.IntVal(ringSize))
	want := int64(writers * writesEach)
	status := "OK"
	if total.I != want {
		status = fmt.Sprintf("MISMATCH (want %d)", want)
	}
	fmt.Printf("[%s] audited total = %d %s\n", proto, total.I, status)

	if proto == interp.ProtoSolero {
		cfg := m.Options().LockCfg
		var attempts, successes, suppressed, aborts uint64
		for _, obj := range ring {
			st := obj.SoleroLock(cfg).Stats()
			attempts += st.ElisionAttempts.Load()
			successes += st.ElisionSuccesses.Load()
			suppressed += st.SuppressedFaults.Load()
			aborts += st.AsyncAborts.Load()
		}
		fmt.Printf("         elisions %d/%d succeeded, %d faults suppressed, %d async aborts\n",
			successes, attempts, suppressed, aborts)
	}
}
