package interp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/jit/analysis"
	"repro/internal/jit/codegen"
	"repro/internal/jit/ir"
	"repro/internal/jit/lang"
	"repro/internal/jit/sema"
	"repro/internal/jthread"
)

// profiledMachine builds src and returns everything the profile tests need.
func profiledMachine(t *testing.T, src string) (*Machine, *analysis.Result, *jthread.Thread) {
	t.Helper()
	prog, res, _, err := jit.Build(src, codegen.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	vm := jthread.NewVM()
	// Counted locks: TestProfilePromotesRareWriter counts elisions.
	m := NewMachine(prog, vm, Options{Protocol: ProtoSolero, LockCfg: core.CountedConfig(nil)})
	return m, res, vm.Attach("main")
}

// rareLoggerSrc: the write lives in a heap-writing CALLEE guarded by a
// runtime condition — the static analysis cannot see the rarity (the call
// is unconditional) and classifies the block writing; a runtime profile
// can (§5).
const rareLoggerSrc = `
class Host {
	int value;
	int errors;

	void maybeLog(int k) {
		if (k < 0) { errors = errors + 1; }
	}

	int get(int k) {
		synchronized (this) {
			maybeLog(k);
			return value;
		}
	}
}
`

func TestStaticClassifierMarksRareLoggerWriting(t *testing.T) {
	prog, res, rep, err := jit.Build(rareLoggerSrc, codegen.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	cm := prog.MethodByName("Host", "get")
	if cm.Syncs[0].Plan != ir.PlanWrite {
		t.Fatalf("static plan = %v, want write (unconditional call of a heap-writing callee)", cm.Syncs[0].Plan)
	}
	if rep.Writing != 1 {
		t.Fatalf("report: %+v", rep)
	}
	br := res.Classify(cm.Syncs[0].AST)
	if !br.ProfileEligible() {
		t.Fatalf("block must be profile-eligible: violations=%v sideEffects=%d", br.Violations, br.SideEffects)
	}
}

func TestProfilePromotesRareWriter(t *testing.T) {
	m, res, th := profiledMachine(t, rareLoggerSrc)
	obj, _ := m.NewInstance("Host")
	recv := ObjVal(obj)
	sb := m.Prog.MethodByName("Host", "get").Syncs[0]

	// Profile window: the writes never execute (k >= 0).
	for i := 0; i < 500; i++ {
		m.MustCall(th, "Host", "get", recv, IntVal(int64(i)))
	}
	prof := m.Profile(sb)
	if prof.Execs.Load() != 500 || prof.Writes.Load() != 0 {
		t.Fatalf("profile = %d execs %d writes", prof.Execs.Load(), prof.Writes.Load())
	}
	if changes := m.ReclassifyFromProfile(res, 100, 0.05, 0.5); changes != 1 {
		t.Fatalf("changes = %d, want 1", changes)
	}
	if m.PlanOf(sb) != ir.PlanReadMostly {
		t.Fatalf("plan after promote = %v", m.PlanOf(sb))
	}

	// The promoted block now elides its no-write executions.
	lk := obj.SoleroLock(m.Options().LockCfg)
	elideBefore := lk.Stats().ElisionSuccesses.Load()
	for i := 0; i < 200; i++ {
		m.MustCall(th, "Host", "get", recv, IntVal(int64(i)))
	}
	if got := lk.Stats().ElisionSuccesses.Load() - elideBefore; got != 200 {
		t.Fatalf("promoted block elided %d/200", got)
	}

	// And a write (k < 0) upgrades correctly — through the CALLEE.
	m.MustCall(th, "Host", "get", recv, IntVal(-1))
	errs, _ := obj.FieldByName("errors")
	if errs.I != 1 {
		t.Fatalf("errors = %d", errs.I)
	}
	if lk.Stats().Upgrades.Load()+lk.Stats().Fallbacks.Load() == 0 {
		t.Fatalf("callee write did not go through the upgrade protocol")
	}
}

func TestProfileDemotesFrequentWriter(t *testing.T) {
	// Statically read-mostly (guarded direct write), but at runtime the
	// guard is almost always taken: demote to the plain write plan.
	src := `
class Counter {
	int n;
	int bump(boolean really) {
		synchronized (this) {
			if (really) { n = n + 1; }
			return n;
		}
	}
}
`
	m, res, th := profiledMachine(t, src)
	obj, _ := m.NewInstance("Counter")
	recv := ObjVal(obj)
	sb := m.Prog.MethodByName("Counter", "bump").Syncs[0]
	if m.PlanOf(sb) != ir.PlanReadMostly {
		t.Fatalf("static plan = %v, want read-mostly", m.PlanOf(sb))
	}
	for i := 0; i < 300; i++ {
		m.MustCall(th, "Counter", "bump", recv, BoolVal(true))
	}
	if m.Profile(sb).WriteRatio() < 0.99 {
		t.Fatalf("write ratio = %f", m.Profile(sb).WriteRatio())
	}
	if changes := m.ReclassifyFromProfile(res, 100, 0.05, 0.5); changes != 1 {
		t.Fatalf("changes = %d", changes)
	}
	if m.PlanOf(sb) != ir.PlanWrite {
		t.Fatalf("plan after demote = %v", m.PlanOf(sb))
	}
	// Still correct after demotion.
	got := m.MustCall(th, "Counter", "bump", recv, BoolVal(true))
	if got.I != 301 {
		t.Fatalf("n = %d", got.I)
	}
}

func TestProfileRespectsMinExecs(t *testing.T) {
	m, res, th := profiledMachine(t, rareLoggerSrc)
	obj, _ := m.NewInstance("Host")
	for i := 0; i < 10; i++ {
		m.MustCall(th, "Host", "get", ObjVal(obj), IntVal(1))
	}
	if changes := m.ReclassifyFromProfile(res, 100, 0.05, 0.5); changes != 0 {
		t.Fatalf("reclassified below minExecs: %d", changes)
	}
}

func TestSideEffectBlocksNeverPromoted(t *testing.T) {
	src := `
class Logger {
	int x;
	int get(int k) {
		synchronized (this) {
			if (k < 0) { print(k); }
			return x;
		}
	}
}
`
	m, res, th := profiledMachine(t, src)
	obj, _ := m.NewInstance("Logger")
	sb := m.Prog.MethodByName("Logger", "get").Syncs[0]
	if m.PlanOf(sb) != ir.PlanWrite {
		t.Fatalf("print block plan = %v, want write", m.PlanOf(sb))
	}
	for i := 0; i < 500; i++ {
		m.MustCall(th, "Logger", "get", ObjVal(obj), IntVal(1))
	}
	if changes := m.ReclassifyFromProfile(res, 100, 0.05, 0.5); changes != 0 {
		t.Fatalf("side-effecting block promoted")
	}
}

func TestResetProfiles(t *testing.T) {
	m, _, th := profiledMachine(t, rareLoggerSrc)
	obj, _ := m.NewInstance("Host")
	m.MustCall(th, "Host", "get", ObjVal(obj), IntVal(1))
	sb := m.Prog.MethodByName("Host", "get").Syncs[0]
	if m.Profile(sb).Execs.Load() == 0 {
		t.Fatalf("no profile recorded")
	}
	m.ResetProfiles()
	if m.Profile(sb).Execs.Load() != 0 {
		t.Fatalf("profiles not reset")
	}
}

// TestGuardedCalleeWriteIsStaticallyReadMostly: with section propagation
// into callees, a guarded call of a heap-writing method is admissible
// statically.
func TestGuardedCalleeWriteIsStaticallyReadMostly(t *testing.T) {
	src := `
class Host {
	int value, errors;
	void log() { errors = errors + 1; }
	int get(int k) {
		synchronized (this) {
			if (k < 0) { log(); }
			return value;
		}
	}
}
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(ck)
	if res.Order[0].Class != analysis.ReadMostly {
		t.Fatalf("class = %v, violations = %v", res.Order[0].Class, res.Order[0].Violations)
	}
	// Execute: the callee write must upgrade, and the invariant holds.
	m, _, th := profiledMachine(t, src)
	obj, _ := m.NewInstance("Host")
	recv := ObjVal(obj)
	for i := 0; i < 20; i++ {
		m.MustCall(th, "Host", "get", recv, IntVal(-1))
	}
	errs, _ := obj.FieldByName("errors")
	if errs.I != 20 {
		t.Fatalf("errors = %d", errs.I)
	}
	lk := obj.SoleroLock(m.Options().LockCfg)
	if lk.Stats().Upgrades.Load()+lk.Stats().Fallbacks.Load() == 0 {
		t.Fatalf("callee writes bypassed the upgrade protocol")
	}
}
